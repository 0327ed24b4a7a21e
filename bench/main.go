// Command bench is the repository's benchmark: five named workloads driven
// through the 1-feeder/1-shard engine from outside, five end-to-end metrics
// with regression bounds, and a traced run that splits the end-to-end
// ns/pkt into a per-layer budget. It imports the repo's packages and
// changes none of them. See README.md.
//
// Usage (from this directory; ./run.sh builds into ../.bench_build first):
//
//	go run . [-workload all|<name>] [-seed 1] [-seconds 10] [-trace 0|1] [-runs 1] [-quick] [-out out]
//	go run . -selfcheck
//	go run . compare old/set.json new/set.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same packets")
		seconds   = flag.Int("seconds", 10, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		runs      = flag.Int("runs", 1, "repetitions per workload, run i with seed+i; with more than one result they also go to <out>/set.json (traced: layers-set.json), which compare reads")
		quick     = flag.Bool("quick", false, "packet counts / 50, one segment: plumbing check, numbers not recordable")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end suite twice and fail if any median moved by more than its bound")
		outDir    = flag.String("out", "out", "directory for <workload>.json, layers-<workload>.json and trace-<workload>.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, quick: *quick, trace: *trace != 0, outDir: *outDir}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}

	ws := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	if *selfcheck {
		os.Exit(selfcheckMain(ws, o))
	}
	ok := true
	var set resultSet
	for i := 0; i < *runs; i++ {
		for _, w := range ws {
			res, err := runOne(w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				os.Exit(1)
			}
			ok = ok && res.Correct
			set.Runs = append(set.Runs, res)
		}
		o.seed++
	}
	if len(set.Runs) > 1 {
		name := "set.json"
		if o.trace {
			name = "layers-set.json"
		}
		if err := set.write(filepath.Join(o.outDir, name)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload in the selected mode, stores its files, prints
// the report and ends with the driver's contract line.
func runOne(w workload, o options) (*result, error) {
	if o.quick {
		w = w.quick()
	}
	run, defs := runEndToEnd, endToEnd
	if o.trace {
		run, defs = runTraced, perLayer
	}
	res, err := run(w, o)
	if err != nil {
		return nil, err
	}
	if err := res.write(o.outDir); err != nil {
		return nil, err
	}
	res.print(os.Stdout, defs)
	fmt.Println(res.contractLine())
	return res, nil
}
