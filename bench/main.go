// Command bench is the repository's benchmark: four workloads that drive
// the GraphNER pipeline, its streaming mode and its tagging server from
// the outside, each reporting named end-to-end metrics and, in a traced
// run, per-layer metrics. See README.md.
//
//	bench run -workload pipeline [-seed 1] [-seconds 10] [-trace 0|1] [-spans FILE] [-short]
//	bench compare A/*.json -- B/*.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/graphner"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench run|compare ...")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		os.Exit(runCmd(os.Args[2:], os.Stdout, os.Stderr))
	case "compare":
		os.Exit(compareCmd(os.Args[2:], os.Stdout, os.Stderr))
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown subcommand %q (want run or compare)\n", os.Args[1])
		os.Exit(2)
	}
}

// options are the arguments of one run.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Short    bool
	spans    string
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	// Why records what the workload stresses and why it was chosen.
	Why string
	run func(o options, t *tracer, r *result) error
}

var workloads = []workload{
	{"pipeline", "Train+Test on 1200 BC2GM sentences, repeated cold as the CLI runs it: crf.train and graph.build do most of the work, propagation under 1%", runPipeline},
	{"stream", "folds of 64 unseen raw sentences into a live 600-sentence graph: graph.update and warm propagation do nearly all the work; graph.build runs only in set-up", runStream},
	{"serve-cached", "open loop at 10k req/s over the frozen sentences: every request hits the compile cache, so posteriors, decode and queueing dominate", runServeCached},
	{"serve-novel", "open loop at 3k req/s of unseen sentences: tokenize and crf.compile dominate; a cache or compile change shows here and not on serve-cached", runServeNovel},
}

// check is one inline correctness check that passed.
type check struct {
	Name   string `json:"name"`
	Detail string `json:"detail"`
}

// result is everything one run measured. It is printed as one JSON line
// before the summary line.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Short     bool    `json:"short"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Metrics holds the end-to-end metrics; in a traced run they include
	// the tracing cost and are not comparable with untraced ones.
	Metrics map[string]value `json:"metrics"`
	// Layers holds every per-layer metric of a traced run.
	Layers map[string]value `json:"layers,omitempty"`
	// Samples holds the per-operation values behind the metrics.
	Samples    map[string][]float64 `json:"samples,omitempty"`
	Checks     []check              `json:"checks"`
	Params     any                  `json:"params"`
	Provenance provenance           `json:"provenance"`
}

func (r *result) metric(name string, v float64, unit string) { r.Metrics[name] = value{v, unit} }

func (r *result) layer(name string, v float64, unit string) {
	if r.Layers == nil {
		r.Layers = map[string]value{}
	}
	r.Layers[name] = value{v, unit}
}

// pass records a check that held; failed checks are returned as errors
// and end the run without a result.
func (r *result) pass(name, format string, args ...any) {
	r.Checks = append(r.Checks, check{name, fmt.Sprintf(format, args...)})
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func runCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.Workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.Seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.Seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the recorded spans to this JSON file")
	fs.BoolVar(&o.Short, "short", false, "small inputs, for smoke tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	o.Trace = trace == 1
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := printResult(stdout, r); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// run executes one workload in this process.
func run(o options) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].Name == o.Workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.Workload, workloadNames())
	}
	if o.Seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	r := &result{
		Workload:   o.Workload,
		Seed:       o.Seed,
		Seconds:    o.Seconds,
		Trace:      o.Trace,
		Short:      o.Short,
		Metrics:    map[string]value{},
		Provenance: buildProvenance(),
	}
	var t *tracer
	if o.Trace {
		t = newTracer()
	}
	if err := w.run(o, t, r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	if err := r.complete(); err != nil {
		return nil, err
	}
	if t != nil && o.spans != "" {
		if err := t.writeSpans(o.spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// complete verifies that the run produced every metric of its mode with
// the catalogued unit and a finite value.
func (r *result) complete() error {
	check := func(defs []metricDef, got map[string]value) error {
		for _, d := range defs {
			v, ok := got[d.Name]
			if !ok {
				return fmt.Errorf("metric %s was not measured", d.Name)
			}
			if v.Unit != d.Unit {
				return fmt.Errorf("metric %s has unit %q, want %q", d.Name, v.Unit, d.Unit)
			}
			if v.Value != v.Value || v.Value > 1e300 || v.Value < -1e300 { // lint:checked NaN and overflow guard
				return fmt.Errorf("metric %s is not finite", d.Name)
			}
		}
		return nil
	}
	if err := check(endToEnd, r.Metrics); err != nil {
		return err
	}
	if r.Trace {
		return check(perLayer, r.Layers)
	}
	return nil
}

// printResult writes the full result as one JSON line, then the summary
// line: the end-to-end metrics of an untraced run or the per-layer
// metrics of a traced one.
func printResult(w io.Writer, r *result) error {
	full, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	defs, from := endToEnd, r.Metrics
	if r.Trace {
		defs, from = perLayer, r.Layers
	}
	s := summary{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		s.Metrics[d.Name] = from[d.Name]
	}
	last, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("encode summary: %w", err)
	}
	if _, err := fmt.Fprintf(w, "%s\n%s\n", full, last); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

// provenance says what was measured where.
type provenance struct {
	Revision   string `json:"revision"`
	Modified   bool   `json:"modified"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Start      string `json:"start"`
	// Config is the resolved graphner.Config (System.Config) and Serving
	// the serving.Config the workload passed; zero fields take the
	// server's defaults.
	Config  any `json:"graphner_config,omitempty"`
	Serving any `json:"serving_config,omitempty"`
}

func buildProvenance() provenance {
	p := provenance{
		Revision:   "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// recordConfig stores the resolved system configuration; the extractor is
// a pointer to code, so it is recorded by name.
func (r *result) recordConfig(cfg graphner.Config) {
	cfg.Extractor = nil
	r.Provenance.Config = struct {
		graphner.Config
		Extractor string
	}{cfg, "features.NewExtractor(nil)"}
}
