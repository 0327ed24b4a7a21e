package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultSet is every result of one invocation (workloads × -runs), the unit
// compare works on. Run i of one file pairs with run i of the other.
type resultSet struct {
	Runs []*result `json:"runs"`
}

func (s *resultSet) write(path string) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values returns the metric's value in each run of the workload, in order.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Header.Workload.Name == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict applies the measuring rule of the choosing-metrics guide (§8) to
// one metric of one workload, lower being better: a gain needs the new side
// to win at least nine tenths of the pairs (ties count for neither) and the
// medians to differ by more than the old side's own quartile distance; a
// regression is a median worse by more than the bound; and where either
// side's spread is wider than the bound the row is unresolved, not
// unchanged.
func verdict(old, cur []float64, bound float64) (string, int, int) {
	pairs := min(len(old), len(cur))
	wins := 0
	for i := 0; i < pairs; i++ {
		if cur[i] < old[i] {
			wins++
		}
	}
	mo, mn := median(old), median(cur)
	switch {
	case mo <= 0 || pairs == 0:
		return "no data", wins, pairs
	case iqr(old)/mo > bound || (mn > 0 && iqr(cur)/mn > bound):
		return "unresolved", wins, pairs
	case mn > mo*(1+bound):
		return "REGRESSION", wins, pairs
	case pairs >= 10 && wins*10 >= pairs*9 && mo-mn > iqr(old):
		return "gain", wins, pairs
	default:
		return "no change", wins, pairs
	}
}

// compareSets prints one row per workload × end-to-end metric and returns
// whether any row regressed. Every ratio is printed with its base.
func compareSets(w io.Writer, old, cur *resultSet) (regressed bool) {
	fmt.Fprintf(w, "%-15s %-19s %12s %10s %12s %10s %9s %7s  %s\n",
		"workload", "metric", "old.median", "old.iqr", "new.median", "new.iqr", "new/old", "wins", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, n := old.values(wl.Name, d.Name), cur.values(wl.Name, d.Name)
			if len(o) == 0 && len(n) == 0 {
				continue
			}
			v, wins, pairs := verdict(o, n, d.Bound)
			regressed = regressed || v == "REGRESSION"
			fmt.Fprintf(w, "%-15s %-19s %12.4f %10.4f %12.4f %10.4f %9.4f %3d/%-3d  %s (bound %.0f%% of old median %.4f %s)\n",
				wl.Name, d.Name, median(o), iqr(o), median(n), iqr(n), ratio(median(n), median(o)),
				wins, pairs, v, 100*d.Bound, median(o), d.Unit)
		}
	}
	return regressed
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old/set.json new/set.json")
		return 2
	}
	var sets [2]*resultSet
	for i, path := range args {
		var err error
		if sets[i], err = readSet(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
	}
	if compareSets(os.Stdout, sets[0], sets[1]) {
		return 1
	}
	return 0
}

// selfcheckMain runs the end-to-end suite twice on this one commit and
// fails if any median moved between the two sets by more than its bound, in
// either direction: a benchmark that cannot agree with itself cannot carry
// a claim.
func selfcheckMain(ws []workload, o options) int {
	var sets [2]resultSet
	for i := range sets {
		for _, w := range ws {
			res, err := runOne(w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			sets[i].Runs = append(sets[i].Runs, res)
		}
	}
	fmt.Printf("\n# selfcheck: two sets of the same commit\n")
	fmt.Printf("%-15s %-19s %12s %10s %12s %10s %8s %7s\n", "workload", "metric", "set1", "set1.iqr", "set2", "set2.iqr", "moved", "bound")
	ok := true
	for i, a := range sets[0].Runs {
		b := sets[1].Runs[i]
		ok = ok && a.Correct && b.Correct
		for _, d := range endToEnd {
			ma, mb := a.Metrics[d.Name], b.Metrics[d.Name]
			moved := ratio(max(ma.Value, mb.Value), min(ma.Value, mb.Value)) - 1
			mark := ""
			if moved > d.Bound {
				mark, ok = "  FAIL", false
			}
			fmt.Printf("%-15s %-19s %12.4f %10.4f %12.4f %10.4f %7.2f%% %6.0f%%%s\n",
				a.Header.Workload.Name, d.Name, ma.Value, ma.IQR, mb.Value, mb.IQR, 100*moved, 100*d.Bound, mark)
		}
	}
	if !ok {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}
