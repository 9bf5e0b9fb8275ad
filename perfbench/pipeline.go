package main

import (
	"context"
	"errors"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/limits"
	"repro/internal/mutation"
	"repro/internal/qtree"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/sqlparser"
)

// daemonDefaults returns the whole-request budget and generation
// options the daemon gives a request that sets no options: the values
// service.Server.clamp derives from a default Config on this host
// (whose MaxConcurrent default is GOMAXPROCS, i.e. the CPU count).
func daemonDefaults() (time.Duration, core.Options, limits.Limits) {
	cfg := service.Config{MaxConcurrent: runtime.NumCPU()}.Normalize()
	opts := core.DefaultOptions()
	opts.GoalTimeout = cfg.MaxGoalTimeout
	opts.GoalNodeLimit = cfg.MaxGoalNodes
	opts.SolverNodeLimit = cfg.MaxSolverNodes
	opts.Parallelism = cfg.MaxParallelism
	opts.MaxDomainSize = cfg.Limits.MaxDomainSize
	return cfg.MaxTimeout, opts, cfg.Limits
}

// opInput is one library-path op: DDL and SQL text plus the options
// the op generates under.
type opInput struct {
	label  string
	ddl    string
	sql    string
	budget time.Duration
	opts   core.Options
}

// opOutcome is what one op produced. suiteAt and reportAt are measured
// from the op's start; a partial suite gets no kill matrix (as in
// /v1/analyze, which answers 207 right after generation), so its
// report is ready when its suite is.
type opOutcome struct {
	suiteAt, reportAt time.Duration
	sch               *schema.Schema
	q                 *qtree.Query
	suite             *core.Suite
	mutants           []*mutation.Mutant
	report            *mutation.Report
	partial           bool
	err               error
}

// pipeline runs ops the way /v1/analyze runs a request, in process:
// parse DDL and SQL → qtree.Build → core.GenerateContext →
// mutation.Space → mutation.EvaluateContext with one worker. It wraps
// each layer call in a span and, when tracing, in an allocation count.
type pipeline struct {
	lim limits.Limits
	tr  *tracer
	acc layerAcc
}

// layerAcc sums the per-layer counters of every op of a traced run.
type layerAcc struct {
	ops                                     int
	genAllocs, mutAllocs                    uint64
	solve                                   time.Duration
	goals, datasets, skipped, abandoned     int64
	retries, calls, nodes, components, hits int64
	baseProp, problemSize, mutants, cells   int64
	exec                                    engine.ExecCounts
	goalWorkers                             int
}

func (p *pipeline) run(in *opInput, opID int32) (out opOutcome) {
	tr := p.tr
	start := cpuNow()
	root := tr.begin("op", -1, opID)
	defer tr.end(root)

	sp := tr.begin("sqlparser.parse", root, opID)
	sch, err := sqlparser.ParseSchemaLimits(in.ddl, p.lim)
	var stmt *sqlparser.SelectStmt
	if err == nil {
		stmt, err = sqlparser.ParseQueryLimits(in.sql, p.lim)
	}
	tr.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	sp = tr.begin("qtree.build", root, opID)
	q, err := qtree.Build(sch, stmt)
	tr.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	out.sch, out.q = sch, q

	ctx, cancel := context.WithTimeout(context.Background(), in.budget)
	defer cancel()
	var a0 uint64
	if tr.on {
		a0 = heapAllocs()
	}
	sp = tr.begin("core.generate", root, opID)
	suite, err := core.NewGenerator(q, in.opts).GenerateContext(ctx)
	tr.end(sp)
	out.suiteAt = cpuNow() - start
	if tr.on {
		p.acc.genAllocs += heapAllocs() - a0
	}
	out.suite = suite
	switch {
	case err == nil:
	case errors.Is(err, core.ErrPartialSuite):
		out.partial = true
		out.reportAt = out.suiteAt
		if tr.on {
			p.account(in, &out)
		}
		return out
	default:
		out.err = err
		return out
	}

	if tr.on {
		a0 = heapAllocs()
	}
	sp = tr.begin("mutation.space", root, opID)
	mutants, err := mutation.Space(q, mutation.DefaultOptions())
	tr.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	sp = tr.begin("mutation.evaluate", root, opID)
	report, err := mutation.EvaluateContext(ctx, q, mutants, suite.All(), mutation.EvalOptions{Parallelism: 1})
	tr.end(sp)
	out.reportAt = cpuNow() - start
	if tr.on {
		p.acc.mutAllocs += heapAllocs() - a0
	}
	if err != nil {
		out.err = err
		return out
	}
	out.mutants, out.report = mutants, report
	if tr.on {
		p.account(in, &out)
	}
	return out
}

// account folds one traced op's work counters into the run's per-layer
// totals.
func (p *pipeline) account(in *opInput, out *opOutcome) {
	a := &p.acc
	a.ops++
	st := out.suite.Stats
	a.solve += st.SolveTime
	a.datasets += int64(len(out.suite.Datasets))
	a.skipped += int64(len(out.suite.Skipped))
	a.abandoned += int64(len(out.suite.Incomplete))
	a.goals += int64(len(out.suite.Datasets) + len(out.suite.Skipped) + len(out.suite.Incomplete))
	a.retries += int64(st.RetryCount)
	a.calls += int64(st.SolverCalls)
	a.nodes += st.SolverNodes
	a.components += st.ComponentCount
	a.hits += st.ComponentCacheHits
	a.baseProp += st.BasePropagationNodes
	a.problemSize += st.SolverProblemSize
	a.goalWorkers = in.opts.Parallelism
	if out.report != nil {
		a.mutants += int64(len(out.mutants))
		a.cells += int64(len(out.mutants) * len(out.report.Datasets))
		a.exec.Add(out.report.Exec)
	}
}

// reportLayers turns a traced library run's spans and counters into
// the per-layer metrics: times are per-op means in ms (so the layers of
// an op add up to its latency), counts are per-op means.
func (r *run) reportLayers(p *pipeline) {
	a := p.acc
	n := float64(a.ops)
	if n == 0 {
		return
	}
	total, self := r.tracer.layerTimes()
	per := func(d time.Duration) float64 { return ms(d) / n }
	gen := per(total["core.generate"])
	solve := per(a.solve)
	eval := per(total["mutation.evaluate"])
	r.set("sqlparser.parse_ms", per(total["sqlparser.parse"]))
	r.set("qtree.build_ms", per(total["qtree.build"]))
	r.set("core.generate_ms", gen)
	r.set("core.self_ms", per(self["core.generate"])-solve)
	r.set("core.goal_workers", float64(a.goalWorkers))
	r.set("core.allocs", float64(a.genAllocs)/n)
	r.set("core.goals", float64(a.goals)/n)
	r.set("core.datasets", float64(a.datasets)/n)
	r.set("core.skipped", float64(a.skipped)/n)
	r.set("core.goals_abandoned", float64(a.abandoned)/n)
	r.set("core.retries", float64(a.retries)/n)
	r.set("solver.solve_ms", solve)
	r.set("solver.calls", float64(a.calls)/n)
	r.set("solver.nodes", float64(a.nodes)/n)
	r.set("solver.nodes_per_ms", ratio(float64(a.nodes), ms(a.solve)))
	r.set("solver.component_cache_hit_ratio", ratio(float64(a.hits), float64(a.components)))
	r.set("solver.base_propagation_nodes", float64(a.baseProp)/n)
	r.set("solver.problem_size", float64(a.problemSize)/n)
	r.set("mutation.space_ms", per(total["mutation.space"]))
	r.set("mutation.evaluate_ms", eval)
	r.set("mutation.mutants", float64(a.mutants)/n)
	r.set("mutation.matrix_cells", float64(a.cells)/n)
	r.set("mutation.cells_per_ms", ratio(float64(a.cells), ms(total["mutation.evaluate"])))
	r.set("mutation.allocs", float64(a.mutAllocs)/n)
	r.set("engine.compiled_runs", float64(a.exec.CompiledRuns)/n)
	r.set("engine.batches", float64(a.exec.CompiledBatches)/n)
	r.set("engine.hash_joins", float64(a.exec.HashJoins)/n)
	r.set("engine.small_joins", float64(a.exec.SmallJoins)/n)
	r.set("engine.prefix_hits", float64(a.exec.FamilyPrefixHits)/n)
	r.set("engine.memo_hit_ratio", ratio(float64(a.exec.ResultMemoHits), float64(a.exec.CompiledRuns)))
	r.set("bench.self_ms", per(self["op"]))
	r.note("solve time summed over %d goal worker(s) per op", a.goalWorkers)
	op := per(total["op"])
	suite := per(total["sqlparser.parse"] + total["qtree.build"] + total["core.generate"])
	r.note("design check: the kill matrix (mutation.space_ms + mutation.evaluate_ms) is %.1f%% of the mean op (%.3f ms); solver.solve_ms is %.1f%% of the mean suite time (%.3f ms)",
		100*ratio(per(total["mutation.space"])+eval, op), op, 100*ratio(solve, suite), suite)
}
