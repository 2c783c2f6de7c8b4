package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/graphner"
)

// The acceptance gates BENCH_lsh.json records. The speedup and recall
// gates apply to the largest corpus size measured (the approximate
// builder exists for the growing end of the scaling curve; at small V
// the exact builder is already cheap and LSH overhead dominates). The
// F1 gate bounds the end-to-end accuracy cost of the recall the seed
// trades away after refinement.
const (
	lshGateSpeedup   = 3.0
	lshGateRecall    = 0.9
	lshGateF1Abs     = 0.01
	lshGateSentences = 1000 // gate applies from this corpus size up
)

// lshBench is one corpus-size row of BENCH_lsh.json: exact and LSH
// whole-build times over the identical corpus, the recall of the
// approximate neighbour lists against the exact ones, and the inline
// worker-count bit-identity check.
type lshBench struct {
	Sentences int `json:"sentences"`
	Vertices  int `json:"vertices"`
	Edges     int `json:"edges"`
	// ExactNsOp and LSHNsOp time graph.Build end to end (vectorization
	// + k-NN search) in the two modes on the same corpus.
	ExactNsOp float64 `json:"exact_ns_op"`
	LSHNsOp   float64 `json:"lsh_ns_op"`
	Speedup   float64 `json:"speedup"`
	// Recall is the fraction of exact k-NN edges the LSH graph
	// recovers (graph.Recall).
	Recall  float64 `json:"recall"`
	RecallK int     `json:"recall_k"`
	// BitIdentical records the inline determinism check: before timing,
	// the LSH graph was rebuilt with worker counts 1, 2, and 8 and each
	// result compared structurally bit-for-bit (Graph.Equal). The run
	// aborts on mismatch, so a written report always says true.
	BitIdentical bool `json:"bit_identical"`
	// GateApplies marks the rows the speedup/recall gate is evaluated
	// on (sentences ≥ lshGateSentences).
	GateApplies bool `json:"gate_applies"`
}

type lshReport struct {
	GeneratedBy string `json:"generated_by"`
	GoMaxProcs  int    `json:"go_max_procs"`
	// Config echoes the recommended setting under measurement (the
	// library defaults resolved at K=10).
	Config      graph.LSHConfig `json:"config"`
	K           int             `json:"k"`
	GateSpeedup float64         `json:"gate_speedup"`
	GateRecall  float64         `json:"gate_recall"`
	Benchmarks  []lshBench      `json:"benchmarks"`
	// SpeedupRecallGatePass: at the largest measured size, LSH
	// whole-build speedup ≥ GateSpeedup and recall ≥ GateRecall.
	SpeedupRecallGatePass bool `json:"speedup_recall_gate_pass"`
	// End-to-end accuracy gate: one TRAIN+TEST pipeline, tested with
	// the exact graph and the LSH graph; |F1 delta| must stay within
	// F1Tolerance.
	F1Sentences int     `json:"f1_sentences"`
	F1Exact     float64 `json:"f1_exact"`
	F1LSH       float64 `json:"f1_lsh"`
	F1Delta     float64 `json:"f1_delta"`
	F1Tolerance float64 `json:"f1_tolerance"`
	F1GatePass  bool    `json:"f1_gate_pass"`
}

// genLSHCorpus mirrors the hotpaths corpus generator: same profile, same
// seed, so the LSH sweep measures the workload behind the recorded
// exact-build numbers.
func genLSHCorpus(sentences int) *corpus.Corpus {
	cfg := synth.DefaultConfig(synth.BC2GM, 5)
	cfg.Sentences = sentences
	return synth.NewGenerator(cfg).Generate()
}

// runLSH benchmarks the banded-LSH graph builder against the exact
// inverted-index builder at 250/500/1000/2000/4000 sentences (recall
// and worker-count bit-identity verified inline before any timing),
// runs the end-to-end accuracy gate, and writes BENCH_lsh.json.
func runLSH(outPath string, log *os.File) error {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format, args...)
		}
	}
	const K = 10
	var report lshReport
	report.GeneratedBy = "benchtables -lsh"
	report.GoMaxProcs = runtime.GOMAXPROCS(0)
	report.K = K
	report.GateSpeedup = lshGateSpeedup
	report.GateRecall = lshGateRecall
	// The recommended setting: the library defaults with a fixed seed.
	recommended := graph.LSHConfig{Seed: 1}
	report.Config = recommended

	for _, sentences := range []int{250, 500, 1000, 2000, 4000} {
		c := genLSHCorpus(sentences)
		exactCfg := graph.BuilderConfig{K: K}
		lshCfg := graph.BuilderConfig{K: K, GraphMode: graph.ModeLSH, LSH: recommended}

		logf("sentences=%d: building exact reference graph...\n", sentences)
		want, err := graph.Build(c, exactCfg)
		if err != nil {
			return err
		}
		got, err := graph.Build(c, lshCfg)
		if err != nil {
			return err
		}
		recall := graph.Recall(want.Neighbors, got.Neighbors)

		// Worker-count bit-identity, before any timing counts.
		for _, w := range []int{1, 2, 8} {
			cfg := lshCfg
			cfg.Workers = w
			g, err := graph.Build(c, cfg)
			if err != nil {
				return err
			}
			if !g.Equal(got) {
				return fmt.Errorf("sentences=%d: LSH build with workers=%d is not bit-identical", sentences, w)
			}
		}

		row := lshBench{
			Sentences:    sentences,
			Vertices:     want.NumVertices(),
			Edges:        got.NumEdges(),
			Recall:       recall,
			RecallK:      K,
			BitIdentical: true,
			GateApplies:  sentences >= lshGateSentences,
		}
		logf("sentences=%d: timing exact build...\n", sentences)
		row.ExactNsOp = float64(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.Build(c, exactCfg); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp())
		logf("sentences=%d: timing LSH build...\n", sentences)
		row.LSHNsOp = float64(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.Build(c, lshCfg); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp())
		row.Speedup = row.ExactNsOp / row.LSHNsOp
		logf("sentences=%d vertices=%d: exact %.0f ns, lsh %.0f ns, speedup %.2fx, recall@%d %.3f\n",
			sentences, row.Vertices, row.ExactNsOp, row.LSHNsOp, row.Speedup, K, recall)
		report.Benchmarks = append(report.Benchmarks, row)
	}

	last := report.Benchmarks[len(report.Benchmarks)-1]
	report.SpeedupRecallGatePass = last.Speedup >= lshGateSpeedup && last.Recall >= lshGateRecall

	// End-to-end accuracy gate: one trained system, tested with the
	// exact graph and with the LSH graph.
	report.F1Sentences = 2000
	report.F1Tolerance = lshGateF1Abs
	scfg := synth.DefaultConfig(synth.BC2GM, 5)
	scfg.Sentences = report.F1Sentences
	train, test := synth.GenerateSplit(scfg)
	gcfg := graphner.Default()
	gcfg.CRFIterations = 40
	logf("accuracy gate: training base CRF (%d sentences)...\n", report.F1Sentences)
	sys, err := graphner.Train(train, gcfg)
	if err != nil {
		return err
	}
	f1 := func(s *graphner.System) (float64, error) {
		out, err := s.Test(test)
		if err != nil {
			return 0, err
		}
		preds, err := eval.PredictionsFromTags(test, out.Tags)
		if err != nil {
			return 0, err
		}
		res, err := eval.Evaluate(test, preds)
		if err != nil {
			return 0, err
		}
		return res.Metrics().F1, nil
	}
	logf("accuracy gate: TEST pass with the exact graph...\n")
	if report.F1Exact, err = f1(sys); err != nil {
		return err
	}
	lcfg := sys.Config()
	lcfg.GraphMode = graph.ModeLSH
	lcfg.LSH = recommended
	logf("accuracy gate: TEST pass with the LSH graph...\n")
	if report.F1LSH, err = f1(sys.WithConfig(lcfg)); err != nil {
		return err
	}
	report.F1Delta = report.F1LSH - report.F1Exact
	report.F1GatePass = math.Abs(report.F1Delta) <= report.F1Tolerance
	logf("accuracy gate: exact F1 %.4f, lsh F1 %.4f, delta %+.4f (tolerance %.3f)\n",
		report.F1Exact, report.F1LSH, report.F1Delta, report.F1Tolerance)

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	logf("wrote %s\n", outPath)
	return nil
}
