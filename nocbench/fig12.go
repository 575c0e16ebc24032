package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"nocbt"
)

// fig12GoldenPath is the repository's pinned rendering of fig12 at seed 1,
// read relative to the repository root the benchmark runs from.
const fig12GoldenPath = "testdata/fig12_report.golden"

// fig12Job is one grid point of the Fig. 12 sweep, built the way the
// sweep runner builds its untrained LeNet jobs.
type fig12Job struct {
	platform string
	format   string
	ordering nocbt.Ordering
	cfg      nocbt.Platform
	model    *nocbt.Model
	input    *nocbt.Tensor
}

func (j fig12Job) key() string { return j.platform + "/" + j.format + "/" + j.ordering.String() }

func fig12Jobs(seed int64) []fig12Job {
	var jobs []fig12Job
	for _, g := range []nocbt.Geometry{nocbt.Float32(), nocbt.Fixed8()} {
		for _, p := range nocbt.PaperPlatforms() {
			for _, o := range nocbt.Orderings() {
				cfg := p.Build(g)
				cfg.Ordering = o
				model := nocbt.LeNet(seed)
				jobs = append(jobs, fig12Job{
					platform: p.Name,
					format:   g.Format.String(),
					ordering: o,
					cfg:      cfg,
					model:    model,
					input:    nocbt.SampleInput(model, seed+7),
				})
			}
		}
	}
	return jobs
}

// fig12Row is the part of one fig12 table row the checks and replay use.
type fig12Row struct{ bt, cycles int64 }

// runFig12 measures the paper's with-NoC sweep: each op is one registered
// fig12 experiment with random weights, 18 LeNet inferences on the sweep
// runner's worker pool.
func runFig12(ctx context.Context, r *run) error {
	var golden []byte
	if r.seed == 1 {
		var err error
		if golden, err = os.ReadFile(fig12GoldenPath); err != nil {
			return err
		}
	}
	var (
		jobs  []fig12Job
		first string
		rows  map[string]fig12Row
	)
	s := spec{
		reps: 20,
		setup: func(ctx context.Context) error {
			jobs = fig12Jobs(r.seed)
			for _, j := range jobs {
				if _, err := nocbt.NewEngine(j.cfg, j.model); err != nil {
					return err
				}
			}
			return nil
		},
		minOps:  2,
		primary: "op",
		op: func(ctx context.Context) []timing {
			return r.timeOp("op", func() error {
				var res *nocbt.Result
				err := r.span("RunExperiment fig12", "nocbt", r.tid, func() error {
					var err error
					res, err = nocbt.RunExperiment(ctx, "fig12", nocbt.Params{Seed: r.seed})
					return err
				})
				if err != nil {
					return err
				}
				text, err := nocbt.Render(res, nocbt.Text)
				if err != nil {
					return err
				}
				got, err := fig12Rows(res)
				if err != nil {
					return err
				}
				switch {
				case first == "":
					first, rows = text, got
					if golden != nil && text != string(golden) {
						return fmt.Errorf("seed 1 rendering differs from %s", fig12GoldenPath)
					}
				case text != first:
					return fmt.Errorf("repeated fig12 run rendered differently")
				}
				return nil
			})
		},
	}
	untraced, err := r.measure(ctx, s)
	if err != nil {
		return err
	}
	if rows == nil {
		return fmt.Errorf("no fig12 run succeeded")
	}
	for _, row := range rows {
		r.counts["link_bt"] += row.bt
		r.counts["sim_cycles"] += row.cycles
	}
	r.counts["rows"] = int64(len(rows))
	if !r.traced {
		r.setE2E(s, untraced)
		return nil
	}

	if err := r.startTrace(); err != nil {
		return err
	}
	traced, err := r.measure(ctx, s)
	if err != nil {
		return err
	}
	r.layer["sweep.cpu_per_wall"] = untraced.cpu.Seconds() / untraced.wall.Seconds()
	if err := replayFig12(ctx, r, jobs, rows); err != nil {
		return err
	}
	return r.finishTrace(s, untraced, traced)
}

// fig12Rows reads the typed table of a fig12 result, keyed like
// fig12Job.key, and checks that cycles match across orderings within each
// platform × format (ordering changes bits on the wire, not timing).
func fig12Rows(res *nocbt.Result) (map[string]fig12Row, error) {
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 18 {
		return nil, fmt.Errorf("fig12 result: want one 18-row table")
	}
	rows := map[string]fig12Row{}
	cycles := map[string]int64{}
	for _, cells := range res.Tables[0].Rows {
		if len(cells) != 6 {
			return nil, fmt.Errorf("fig12 row has %d cells", len(cells))
		}
		platform, _ := cells[0].(string)
		format, _ := cells[1].(string)
		ordering, _ := cells[2].(string)
		bt, ok1 := cells[3].(int64)
		cyc, ok2 := cells[4].(int64)
		if !ok1 || !ok2 || bt <= 0 || cyc <= 0 {
			return nil, fmt.Errorf("fig12 row %v: bad BT/cycles", cells)
		}
		rows[platform+"/"+format+"/"+ordering] = fig12Row{bt, cyc}
		group := platform + "/" + format
		if c, seen := cycles[group]; seen && c != cyc {
			return nil, fmt.Errorf("fig12 %s: cycles differ across orderings (%d vs %d)", group, c, cyc)
		}
		cycles[group] = cyc
	}
	return rows, nil
}

// replayFig12 re-runs every fig12 job serially through NewEngine and
// Engine.Infer under spans, checks each reproduces its row's BT and
// cycles, and records the engine and NoC layer metrics.
func replayFig12(ctx context.Context, r *run, jobs []fig12Job, rows map[string]fig12Row) error {
	var builds []float64
	infer := map[string][]float64{}
	var inferNS int64
	for _, j := range jobs {
		var eng *nocbt.Engine
		t0 := time.Now()
		err := r.span("NewEngine "+j.key(), "accel", r.tid, func() error {
			var err error
			eng, err = nocbt.NewEngine(j.cfg, j.model)
			return err
		})
		if err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t0)))
		t0 = time.Now()
		err = r.span("Engine.Infer "+j.key(), "accel", r.tid, func() error {
			_, err := eng.Infer(ctx, j.input)
			return err
		})
		if err != nil {
			return err
		}
		d := time.Since(t0)
		inferNS += d.Nanoseconds()
		infer[j.platform] = append(infer[j.platform], ms(d))

		want := rows[j.key()]
		if eng.TotalBT() != want.bt || eng.Cycles() != want.cycles {
			r.problem("replay %s: BT %d cycles %d, fig12 row has %d/%d",
				j.key(), eng.TotalBT(), eng.Cycles(), want.bt, want.cycles)
		}
		r.layer["noc.cycles"] += float64(eng.Cycles())
		r.layer["noc.bt"] += float64(eng.TotalBT())
		r.layer["noc.flits"] += float64(eng.TotalFlits())
		r.layer["noc.flit_hops"] += float64(eng.NoCStats().RouterFlits)
	}
	r.counts["replay.jobs"] = int64(len(jobs))
	r.layer["accel.engine_build_ms"] = median(builds)
	for p, v := range infer {
		r.layer["accel.infer_ms."+strings.ReplaceAll(p, " ", "_")] = median(v)
	}
	r.layer["noc.host_ns_per_cycle"] = float64(inferNS) / r.layer["noc.cycles"]
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
