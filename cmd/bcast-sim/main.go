// Command bcast-sim optimizes a tree, compiles the broadcast program, and
// simulates mobile clients against it, reporting exact expected metrics
// (probe/data/access wait, tuning time, energy) plus a sample of
// individual queries.
//
// Example:
//
//	bcast-gen -type mary -m 3 -depth 3 | bcast-sim -k 2 -replicate
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

func main() {
	var (
		in        = flag.String("tree", "", "tree JSON file (default stdin)")
		k         = flag.Int("k", 1, "number of broadcast channels")
		strategy  = flag.String("strategy", "auto", "solver strategy (see bcast-opt)")
		replicate = flag.Bool("replicate", false, "fill empty channel-1 slots with root copies")
		queries   = flag.Int("queries", 10, "sample queries to print")
		seed      = flag.Int64("seed", 1, "seed for sample queries")
		active    = flag.Float64("active", 1, "active power per slot")
		doze      = flag.Float64("doze", 0.05, "doze power per slot")
		replay    = flag.Int("replay", 0, "replay this many workload queries and print percentiles")
		rangeFrac = flag.Float64("range-frac", 0, "fraction of replayed queries that are range scans (keyed trees)")
	)
	flag.Parse()
	if err := run(*in, *k, *strategy, *replicate, *queries, *seed, *active, *doze, *replay, *rangeFrac, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-sim:", err)
		os.Exit(1)
	}
}

func run(in string, k int, strategy string, replicate bool, queries int, seed int64, active, doze float64, replay int, rangeFrac float64, w io.Writer) error {
	var data []byte
	var err error
	if in == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(in)
	}
	if err != nil {
		return err
	}
	t, err := tree.ParseJSON(data)
	if err != nil {
		return err
	}
	strat, err := core.ParseStrategy(strategy)
	if err != nil {
		return err
	}
	sol, err := core.Solve(t, core.Config{Channels: k, Strategy: strat})
	if err != nil {
		return err
	}
	prog, err := sim.Compile(sol.Alloc, sim.Options{FillWithRootCopies: replicate})
	if err != nil {
		return err
	}
	power := sim.Power{Active: active, Doze: doze}
	summary, err := sim.Evaluate(prog, power, sim.Faults{})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "allocation (%s, data wait %.4f buckets):\n%s\n\n", sol.Used, sol.Cost, sol.Alloc)
	fmt.Fprintf(w, "expected metrics (uniform arrival, popularity-weighted targets):\n")
	fmt.Fprintf(w, "  probe wait  %8.4f slots\n", summary.ProbeWait)
	fmt.Fprintf(w, "  data wait   %8.4f slots\n", summary.DataWait)
	fmt.Fprintf(w, "  access time %8.4f slots\n", summary.AccessTime)
	fmt.Fprintf(w, "  tuning time %8.4f buckets\n", summary.TuningTime)
	fmt.Fprintf(w, "  energy      %8.4f units\n\n", summary.Energy)

	if queries > 0 {
		rng := stats.NewRNG(seed)
		dataIDs := t.DataIDs()
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "arrival\ttarget\tprobe\tdata\taccess\ttuning\tenergy")
		for i := 0; i < queries; i++ {
			target := dataIDs[rng.Intn(len(dataIDs))]
			arrival := rng.Intn(prog.CycleLen() * 2)
			m, err := prog.Query(arrival, target, power)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%d\t%.3f\n",
				arrival, t.Label(target), m.ProbeWait, m.DataWait, m.AccessTime, m.TuningTime, m.Energy)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if replay > 0 {
		rep, err := driver.Run(prog, driver.Config{
			Queries:       replay,
			Seed:          seed,
			Power:         power,
			RangeFraction: rangeFrac,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nreplay of %d queries (%d point, %d range):\n",
			rep.Queries, rep.PointQueries, rep.RangeQueries)
		fmt.Fprintf(w, "  access: %s\n", rep.Access)
		fmt.Fprintf(w, "  tuning: %s\n", rep.Tuning)
		fmt.Fprintf(w, "  energy: %s\n", rep.Energy)
	}
	return nil
}
