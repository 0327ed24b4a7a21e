package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// header is the machine fingerprint and run parameters every output file
// starts with: a number without them cannot be compared with another.
type header struct {
	CPU        string   `json:"cpu"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	Commit     string   `json:"commit"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Quick      bool     `json:"quick"`
	Traced     bool     `json:"traced"`
	Workload   workload `json:"workload"`
}

func newHeader(w workload, o options) header {
	return header{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Quick:      o.quick,
		Traced:     o.trace,
		Workload:   w,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could see one (a checkout exported without .git cannot).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// result is one run of one workload: the header, the verdict the contract
// line repeats, and every metric by name.
type result struct {
	Header    header            `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Notes     []string          `json:"notes,omitempty"` // why Correct is false
	Segments  int               `json:"segments"`
	Metrics   map[string]metric `json:"metrics"`
	// PerSegment holds the values each median was taken over.
	PerSegment map[string][]float64 `json:"per_segment,omitempty"`
	// Waterfall is the traced run's layer budget, ns per packet, as printed.
	Waterfall []string `json:"waterfall,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// write stores the result as <dir>/<workload>.json (traced runs:
// layers-<workload>.json, beside trace-<workload>.json).
func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := r.Header.Workload.Name + ".json"
	if r.Header.Traced {
		name = "layers-" + name
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// print lists every metric by name with its unit, in declaration order.
func (r *result) print(w io.Writer, defs []metricDef) {
	h := r.Header
	fmt.Fprintf(w, "# %s  seed=%d seconds=%d quick=%v traced=%v\n", h.Workload.Name, h.Seed, h.Seconds, h.Quick, h.Traced)
	fmt.Fprintf(w, "# %s, nproc=%d GOMAXPROCS=%d %s commit=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	fmt.Fprintf(w, "# %s\n", h.Workload.Why)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-36s %14.4f %-6s", d.Name, m.Value, m.Unit)
		if m.IQR != 0 {
			fmt.Fprintf(w, " %s.iqr=%.4f", d.Name, m.IQR)
		}
		if m.N != 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
	if len(r.Waterfall) > 0 {
		fmt.Fprintf(w, "# waterfall %s (ns per packet)\n", h.Workload.Name)
		for _, line := range r.Waterfall {
			fmt.Fprintln(w, line)
		}
	}
	if v, ok := r.Metrics["ns_per_pkt"]; ok && v.Value > 0 {
		fmt.Fprintf(w, "%-36s %14.0f pkts/s (convenience, = 1e9 / ns_per_pkt)\n", "", 1e9/v.Value)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d segments=%d\n", r.Correct, r.Attempted, r.Failed, r.Segments)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "FAIL: %s\n", n)
	}
}

// contractLine is the one-object summary the benchmark driver reads from
// the last line of standard output.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for name, m := range r.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // floats and strings only: cannot fail unless a metric is NaN, which is a bug
	}
	return string(b)
}
