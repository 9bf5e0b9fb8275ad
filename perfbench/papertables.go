package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sqlparser"
	"repro/internal/university"
)

// expectedTables holds every Table I/II cell's dataset count and
// killed/space, copied from EXPERIMENTS.md, where randomized
// equivalence testing confirmed every survivor equivalent.
//
//go:embed expected_tables.json
var expectedTables []byte

type expectedCell struct {
	Query    string `json:"query"`
	FK       int    `json:"fk"`
	Datasets int    `json:"datasets"`
	Killed   int    `json:"killed"`
	Space    int    `json:"space"`
}

// runPaperTables is the paper-tables workload: a closed loop, one
// client, over the 20 Table I/II cells (university.Schema(fk) rendered
// to DDL plus the cell's SQL), each op making the calls /v1/analyze
// makes under daemon defaults. The seed shuffles cell order.
func runPaperTables(r *run) error {
	var file struct {
		Cells []expectedCell `json:"cells"`
	}
	if err := json.Unmarshal(expectedTables, &file); err != nil {
		return err
	}
	budget, opts, lim := daemonDefaults()
	prepare := func() ([]*opInput, error) {
		return paperInputs(file.Cells, budget, opts)
	}
	inputs, err := timeSetup(r, librarySetups, prepare, nil)
	if err != nil {
		return err
	}
	p := &pipeline{lim: lim, tr: r.tracer}
	return r.libraryLoop(p, inputs, prepare, func(i int, out *opOutcome) error {
		want := file.Cells[i]
		if out.partial {
			return fmt.Errorf("partial suite: %d goal(s) abandoned", len(out.suite.Incomplete))
		}
		got := expectedCell{
			Query: want.Query, FK: want.FK,
			Datasets: len(out.suite.Datasets),
			Killed:   out.report.KilledCount(),
			Space:    len(out.mutants),
		}
		if got != want {
			return fmt.Errorf("datasets %d killed %d/%d, want datasets %d killed %d/%d",
				got.Datasets, got.Killed, got.Space, want.Datasets, want.Killed, want.Space)
		}
		return nil
	})
}

// paperInputs renders each expected cell's schema to DDL and checks
// that both texts parse, so a timed op never fails on its input.
func paperInputs(cells []expectedCell, budget time.Duration, opts core.Options) ([]*opInput, error) {
	queries := make(map[string]university.BenchQuery)
	for _, bq := range append(university.TableIQueries(), university.TableIIQueries()...) {
		queries[bq.Name] = bq
	}
	var inputs []*opInput
	for _, c := range cells {
		bq, ok := queries[c.Query]
		if !ok {
			return nil, fmt.Errorf("expected_tables.json: unknown query %s", c.Query)
		}
		in := &opInput{
			label:  fmt.Sprintf("%s fk=%d", c.Query, c.FK),
			ddl:    university.Schema(c.FK).String(),
			sql:    bq.SQL,
			budget: budget,
			opts:   opts,
		}
		if _, err := sqlparser.ParseSchema(in.ddl); err != nil {
			return nil, fmt.Errorf("%s: ddl: %w", in.label, err)
		}
		if _, err := sqlparser.ParseQuery(in.sql); err != nil {
			return nil, fmt.Errorf("%s: sql: %w", in.label, err)
		}
		inputs = append(inputs, in)
	}
	return inputs, nil
}
