package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mutation"
	"repro/internal/randql"
	"repro/internal/refeval"
	"repro/internal/sqlparser"
)

// The randql-mix pool: randql seeds [randqlPoolBase, randqlPoolBase +
// randqlPoolSize) under the completeness grammar. The pool is fixed and
// --seed only shuffles op order: about one case in fifteen holds a goal
// that needs 10^5–10^6 solver nodes and costs 100–1000× a median case,
// so a window that moved with the seed would swing the run's total
// work with the number of hard cases it happened to draw.
const (
	randqlPoolBase = 1
	randqlPoolSize = 100
	// randqlGoalNodes is the fixed per-goal node budget (with the
	// escalating 1x/4x/16x retry ladder). There is no wall-clock goal
	// timeout and goals solve on one worker, so exactly the same goals
	// are abandoned on every run: with more goal workers the component
	// cache lets whichever goal runs first pay a shared component's
	// nodes, which could move a goal across the budget.
	randqlGoalNodes = 500
)

// caseState remembers a pool case's first outcome: the oracle checks
// it, and every later op on the case must reproduce it.
type caseState struct {
	seed  int64
	first *opOutcome
	sig   string
}

// runRandqlMix is the randql-mix workload: the paper-tables op over the
// pool of randql completeness-grammar cases (subqueries, HAVING, LIKE)
// with a fixed per-goal node budget.
func runRandqlMix(r *run) error {
	budget, opts, lim := daemonDefaults()
	opts.GoalNodeLimit = randqlGoalNodes
	opts.GoalTimeout = 0
	opts.Parallelism = 1
	prepare := func() ([]*opInput, error) {
		return randqlInputs(budget, opts)
	}
	inputs, err := timeSetup(r, librarySetups, prepare, nil)
	if err != nil {
		return err
	}
	states := make([]caseState, len(inputs))
	for i := range states {
		states[i].seed = randqlPoolBase + int64(i)
	}
	p := &pipeline{lim: lim, tr: r.tracer}
	err = r.libraryLoop(p, inputs, prepare, func(i int, out *opOutcome) error {
		st := &states[i]
		sig := outcomeSignature(out)
		if st.first == nil {
			kept := *out
			st.first, st.sig = &kept, sig
			return nil
		}
		if sig != st.sig {
			return fmt.Errorf("outcome differs from the case's first op:\n  first: %s\n  now:   %s", st.sig, sig)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The completeness oracle, untimed, once per case.
	known, err := knownDefects()
	if err != nil {
		return err
	}
	abandoned, reproduced := 0, 0
	for i := range states {
		st := &states[i]
		if st.first == nil {
			continue
		}
		if st.first.partial {
			abandoned++
		}
		survivors, err := randqlOracle(st)
		if err != nil {
			r.failed++
			r.problem("randql seed %d: %v\n%s", st.seed, err, inputs[i].sql)
		}
		for _, m := range survivors {
			if known[defectKey{st.seed, m.Key}] {
				reproduced++
				r.note("known defect reproduced: randql seed %d, non-equivalent survivor %s (%s)", st.seed, m.Key, m.Desc)
				continue
			}
			r.failed++
			r.problem("randql seed %d: non-equivalent survivor %s (%s), confirmed by refeval\n%s", st.seed, m.Key, m.Desc, inputs[i].sql)
		}
	}
	if reproduced < len(known) {
		r.note("%d known defect(s) in known_defects.json no longer reproduce", len(known)-reproduced)
	}
	r.set("bench.known_defects", float64(reproduced))
	r.note("pool of %d cases, %d left partial by the %d-node goal budget", len(inputs), abandoned, randqlGoalNodes)
	return nil
}

// knownDefectsFile lists the completeness bugs the oracle has found
// and the program still has; see its "about" field.
//
//go:embed known_defects.json
var knownDefectsFile []byte

type defectKey struct {
	seed   int64
	mutant string
}

func knownDefects() (map[defectKey]bool, error) {
	var file struct {
		Defects []struct {
			Seed   int64  `json:"randql_seed"`
			Mutant string `json:"mutant"`
		} `json:"defects"`
	}
	if err := json.Unmarshal(knownDefectsFile, &file); err != nil {
		return nil, fmt.Errorf("known_defects.json: %w", err)
	}
	out := make(map[defectKey]bool)
	for _, d := range file.Defects {
		out[defectKey{d.Seed, d.Mutant}] = true
	}
	return out, nil
}

// randqlInputs renders each pool case's schema to DDL.
func randqlInputs(budget time.Duration, opts core.Options) ([]*opInput, error) {
	cfg := randql.CompletenessConfig()
	inputs := make([]*opInput, 0, randqlPoolSize)
	for i := 0; i < randqlPoolSize; i++ {
		seed := randqlPoolBase + int64(i)
		c, err := randql.NewCase(seed, cfg)
		if err != nil {
			return nil, err
		}
		in := &opInput{
			label:  fmt.Sprintf("randql seed %d", seed),
			ddl:    c.Schema.String(),
			sql:    c.SQL,
			budget: budget,
			opts:   opts,
		}
		if _, err := sqlparser.ParseSchema(in.ddl); err != nil {
			return nil, fmt.Errorf("%s: ddl: %w", in.label, err)
		}
		inputs = append(inputs, in)
	}
	return inputs, nil
}

// outcomeSignature summarizes the deterministic part of an op's
// outcome: what was generated, what was abandoned, and what was killed.
func outcomeSignature(out *opOutcome) string {
	var sb strings.Builder
	s := out.suite
	fmt.Fprintf(&sb, "datasets=%d skipped=%d nodes=%d", len(s.Datasets), len(s.Skipped), s.Stats.SolverNodes)
	for _, f := range s.Incomplete {
		fmt.Fprintf(&sb, " abandoned=%q", f.Purpose)
	}
	if out.report != nil {
		fmt.Fprintf(&sb, " killed=%d/%d", out.report.KilledCount(), len(out.mutants))
	}
	return sb.String()
}

// randqlOracle is the randql completeness oracle on the suite an op
// produced: every dataset satisfies the schema, and in a complete suite
// every surviving mutant is confirmed equivalent by the random checker.
// It returns the survivors the checker distinguishes and refeval
// confirms (completeness bugs); a witness refeval does not confirm is
// an engine bug and an error. Partial suites are checked for schema
// validity only: their survivors include the targets of the abandoned
// goals.
func randqlOracle(st *caseState) ([]*mutation.Mutant, error) {
	out := st.first
	for _, ds := range out.suite.All() {
		if err := out.sch.CheckDataset(ds); err != nil {
			return nil, fmt.Errorf("dataset %q violates the schema: %w", ds.Purpose, err)
		}
	}
	if out.partial {
		return nil, nil
	}
	var confirmed []*mutation.Mutant
	chk := mutation.NewEquivalenceChecker(st.seed*31 + 7)
	for _, mi := range out.report.Survivors() {
		m := out.mutants[mi]
		equiv, witness, err := chk.Check(out.q, m)
		if err != nil {
			return nil, fmt.Errorf("equivalence check of %s: %w", m.Key, err)
		}
		if equiv {
			continue
		}
		if witness == nil {
			return nil, fmt.Errorf("survivor %s (%s) not equivalent, and no witness", m.Key, m.Desc)
		}
		orig, err1 := refeval.Eval(out.q, witness)
		mut, err2 := refeval.EvalPlan(out.q, m.Plan.Tree, m.Plan.Preds, m.Plan.Subs, m.Plan.Aggs, m.Plan.Having, witness)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("survivor %s: refeval errors: original=%v mutant=%v", m.Key, err1, err2)
		}
		if sameMultiset(orig.Multiset(), mut.Multiset()) {
			return nil, fmt.Errorf("survivor %s (%s): engine and refeval disagree on the witness", m.Key, m.Desc)
		}
		confirmed = append(confirmed, m)
	}
	return confirmed, nil
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}
