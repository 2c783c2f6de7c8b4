// Command graphner is the command-line interface to the GraphNER
// reproduction: it generates synthetic gene-mention corpora in the
// BioCreative II on-disk format, trains the base CRFs, runs the full
// Algorithm-1 pipeline, and evaluates against gold annotations.
//
// Subcommands:
//
//	graphner generate -profile bc2gm -out DIR [-sentences N] [-seed S]
//	    Write sentences, GENE.eval and ALTGENE.eval files for a synthetic
//	    corpus (train and test splits).
//
//	graphner run -profile bc2gm [-sentences N] [-seed S] [-order 1|2]
//	    Generate a corpus, train the base CRF (order 1 or 2), run GraphNER,
//	    and print baseline and GraphNER precision/recall/F plus
//	    significance.
//
//	graphner tag -train DIR [-order 1|2] [-nbest N] [-confidence]
//	    Train on a generated corpus directory and tag sentences read from
//	    standard input, one per line, writing BIO-tagged tokens, optionally
//	    with n-best alternatives and per-mention confidence estimates.
//
//	graphner eval -sentences F -gold GENE.eval -pred PRED.eval [-alt ALTGENE.eval]
//	    Score a predictions file against gold annotations with the
//	    BioCreative II rules (exact match, alternatives honoured).
//
//	graphner freeze -out artifact.gna [-profile bc2gm] [-sentences N] [-seed S]
//	    Train the system, run the transductive TEST pass, and write the
//	    frozen serving artifact graphnerd loads (model, alphabet,
//	    references, graph, beliefs; checksummed single blob).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"math"
	"path/filepath"
	"time"

	"repro/internal/corpus"
	"repro/internal/corpus/synth"
	"repro/internal/crf"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/graphner"
	"repro/internal/sigf"
	"repro/internal/tokenize"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "tag":
		err = cmdTag(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "freeze":
		err = cmdFreeze(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphner:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: graphner <generate|run|tag|eval|freeze> [flags]
run "graphner <subcommand> -h" for flags`)
}

func parseProfile(s string) (synth.Profile, error) {
	switch strings.ToLower(s) {
	case "bc2gm":
		return synth.BC2GM, nil
	case "aml":
		return synth.AML, nil
	}
	return 0, fmt.Errorf("unknown profile %q (want bc2gm or aml)", s)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	profile := fs.String("profile", "bc2gm", "corpus profile: bc2gm or aml")
	out := fs.String("out", "corpus", "output directory")
	sentences := fs.Int("sentences", 0, "total sentences (0 = paper sizes)")
	seed := fs.Int64("seed", 1, "generator seed")
	conll := fs.Bool("conll", false, "additionally write train.conll / test.conll (CoNLL column format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := parseProfile(*profile)
	if err != nil {
		return err
	}
	cfg := synth.DefaultConfig(p, *seed)
	if *sentences > 0 {
		cfg.Sentences = *sentences
	}
	train, test := synth.GenerateSplit(cfg)
	if err := train.WriteDir(*out, "train"); err != nil {
		return err
	}
	if err := test.WriteDir(*out, "test"); err != nil {
		return err
	}
	if *conll {
		for _, part := range []struct {
			name string
			c    *corpus.Corpus
		}{{"train", train}, {"test", test}} {
			f, err := os.Create(filepath.Join(*out, part.name+".conll"))
			if err != nil {
				return err
			}
			if err := part.c.WriteCoNLL(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	fmt.Printf("wrote %s corpus to %s: %d train / %d test sentences, %d/%d mentions\n",
		p, *out, len(train.Sentences), len(test.Sentences), train.NumMentions(), test.NumMentions())
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	profile := fs.String("profile", "bc2gm", "corpus profile: bc2gm or aml")
	sentences := fs.Int("sentences", 2500, "total sentences (0 = paper sizes)")
	seed := fs.Int64("seed", 1, "seed")
	order := fs.Int("order", 1, "CRF order (1 or 2)")
	iters := fs.Int("crf-iters", 40, "CRF training iterations")
	alpha := fs.Float64("alpha", 0, "mixture weight of the CRF posterior (0 = default)")
	k := fs.Int("k", 10, "graph out-degree")
	reps := fs.Int("sigf", 10000, "sigf repetitions (0 disables)")
	incremental := fs.Bool("incremental", false, "run TEST in streaming mode: fold extra unlabelled batches into the maintained graph and re-run fixed-sweep propagation after each")
	streamPool := fs.Int("stream-pool", 150, "with -incremental: total extra unlabelled sentences to stream in")
	streamBatch := fs.Int("stream-batch", 50, "with -incremental: sentences per streamed batch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := parseProfile(*profile)
	if err != nil {
		return err
	}
	cfg := synth.DefaultConfig(p, *seed)
	if *sentences > 0 {
		cfg.Sentences = *sentences
	}
	train, test := synth.GenerateSplit(cfg)
	fmt.Printf("corpus %s: %d train / %d test sentences\n", p, len(train.Sentences), len(test.Sentences))

	gcfg := graphner.Default()
	gcfg.Order = crf.Order(*order)
	gcfg.CRFIterations = *iters
	gcfg.Alpha = *alpha
	gcfg.K = *k
	fmt.Println("training base CRF...")
	sys, err := graphner.Train(train, gcfg)
	if err != nil {
		return err
	}
	var baseTags, gnTags [][]corpus.Tag
	var g interface {
		NumVertices() int
		NumEdges() int
	}
	if *incremental {
		fmt.Println("building similarity graph and running Algorithm 1 (streaming mode)...")
		st, err := graphner.NewStreamer(sys, test)
		if err != nil {
			return err
		}
		if r, err := score(test, st.Tags()); err == nil {
			fmt.Printf("initial pass  : %v\n", r.Metrics())
		} else {
			return err
		}
		poolCfg := synth.DefaultConfig(p, *seed+1)
		poolCfg.Sentences = *streamPool
		pool := synth.NewGenerator(poolCfg).Generate()
		for start := 0; start < len(pool.Sentences); start += *streamBatch {
			end := start + *streamBatch
			if end > len(pool.Sentences) {
				end = len(pool.Sentences)
			}
			batch := corpus.New()
			batch.Sentences = pool.Sentences[start:end]
			t0 := time.Now()
			res, err := st.AddUnlabelled(batch)
			if err != nil {
				return err
			}
			fmt.Printf("batch %d-%d: %v — %d new / %d updated vertices, %d dirty rows (%d repaired, %d re-scanned), %d sweeps (%d row updates), %d test sentences re-decoded\n",
				start, end-1, time.Since(t0).Round(time.Millisecond),
				res.Update.NewVertices, res.Update.UpdatedVertices,
				len(res.Update.DirtyRows), res.Update.RepairedRows, res.Update.RescannedRows,
				res.Warm.Sweeps, res.Warm.Updates, res.Redecoded)
		}
		baseTags, gnTags, g = st.BaselineTags(), st.Tags(), st.Graph()
	} else {
		fmt.Println("building similarity graph and running Algorithm 1...")
		out, err := sys.Test(test)
		if err != nil {
			return err
		}
		fmt.Printf("graph: %.1f%% labelled, %.2f%% positive\n",
			100*out.LabelledVertexFraction, 100*out.PositiveVertexFraction)
		baseTags, gnTags, g = out.BaselineTags, out.Tags, out.Graph
	}
	baseRes, err := score(test, baseTags)
	if err != nil {
		return err
	}
	gnRes, err := score(test, gnTags)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("baseline CRF : %v\n", baseRes.Metrics())
	fmt.Printf("GraphNER     : %v\n", gnRes.Metrics())
	if *reps > 0 {
		r, err := sigf.Test(sigf.FromResults(baseRes), sigf.FromResults(gnRes), sigf.FScore,
			sigf.Options{Repetitions: *reps, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Printf("sigf F-score difference %.4f, p = %.4g (%d reps)\n", r.Observed, r.PValue, r.Repetitions)
	}
	return nil
}

func score(test *corpus.Corpus, tags [][]corpus.Tag) (*eval.Result, error) {
	preds, err := eval.PredictionsFromTags(test, tags)
	if err != nil {
		return nil, err
	}
	return eval.Evaluate(test, preds)
}

func cmdTag(args []string) error {
	fs := flag.NewFlagSet("tag", flag.ExitOnError)
	dir := fs.String("train", "", "corpus directory written by `graphner generate`")
	order := fs.Int("order", 1, "CRF order (1 or 2)")
	iters := fs.Int("crf-iters", 50, "CRF training iterations")
	nbest := fs.Int("nbest", 1, "also print the n best taggings with probabilities")
	conf := fs.Bool("confidence", false, "print per-mention confidence estimates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("tag: -train is required")
	}
	train, err := corpus.ReadDir(*dir, "train")
	if err != nil {
		return err
	}
	cfg := graphner.Default()
	cfg.Order = crf.Order(*order)
	cfg.CRFIterations = *iters
	cfg.Extractor = features.NewExtractor(nil)
	fmt.Fprintln(os.Stderr, "training...")
	sys, err := graphner.Train(train, cfg)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(os.Stdin)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		s := &corpus.Sentence{Text: line, Tokens: tokenize.Sentence(line)}
		in := sys.Compiler().CompileSentence(s)
		tags := sys.Model().Decode(in)
		for i, tok := range s.Tokens {
			if i > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprintf(w, "%s/%s", tok.Text, tags[i])
		}
		fmt.Fprintln(w)
		if *conf {
			mentions := corpus.MentionsFromTags(s.Tokens, tags, s.Text)
			for i, c := range sys.Model().MentionConfidence(in, tags) {
				fmt.Fprintf(w, "# mention %q confidence %.3f\n", mentions[i].Text, c)
			}
		}
		if *nbest > 1 {
			for _, p := range sys.Model().NBest(in, *nbest) {
				fmt.Fprintf(w, "# p=%.4f ", mathExp(p.LogProb))
				for i, tok := range s.Tokens {
					if i > 0 {
						fmt.Fprint(w, " ")
					}
					fmt.Fprintf(w, "%s/%s", tok.Text, p.Tags[i])
				}
				fmt.Fprintln(w)
			}
		}
	}
	return sc.Err()
}

func mathExp(x float64) float64 { return math.Exp(x) }

// cmdEval is the equivalent of the BioCreative II evaluation script:
// score a predictions file (GENE.eval format) against gold annotations,
// honouring alternative annotations.
func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	sentFile := fs.String("sentences", "", "sentence file (ID<space>text per line)")
	goldFile := fs.String("gold", "", "gold GENE.eval file")
	altFile := fs.String("alt", "", "optional ALTGENE.eval file")
	predFile := fs.String("pred", "", "predicted GENE.eval file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sentFile == "" || *goldFile == "" || *predFile == "" {
		return fmt.Errorf("eval: -sentences, -gold and -pred are required")
	}
	sf, err := os.Open(*sentFile)
	if err != nil {
		return err
	}
	defer sf.Close()
	c, err := corpus.ReadSentences(sf)
	if err != nil {
		return err
	}
	readAnns := func(path string) (map[string][]corpus.Mention, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return corpus.ReadAnnotations(f)
	}
	gold, err := readAnns(*goldFile)
	if err != nil {
		return err
	}
	var alts map[string][]corpus.Mention
	if *altFile != "" {
		if alts, err = readAnns(*altFile); err != nil {
			return err
		}
	}
	c.ApplyAnnotations(gold, alts)
	predAnns, err := readAnns(*predFile)
	if err != nil {
		return err
	}
	preds := make([]eval.Prediction, len(c.Sentences))
	for i, s := range c.Sentences {
		preds[i] = eval.Prediction{ID: s.ID, Mentions: predAnns[s.ID]}
	}
	res, err := eval.Evaluate(c, preds)
	if err != nil {
		return err
	}
	m := res.Metrics()
	fmt.Printf("TP %d  FP %d  FN %d\n", res.Counts.TP, res.Counts.FP, res.Counts.FN)
	fmt.Printf("Precision %.2f%%  Recall %.2f%%  F-score %.2f%%\n",
		100*m.Precision, 100*m.Recall, 100*m.F1)
	return nil
}

func cmdFreeze(args []string) error {
	fs := flag.NewFlagSet("freeze", flag.ExitOnError)
	profile := fs.String("profile", "bc2gm", "corpus profile: bc2gm or aml")
	sentences := fs.Int("sentences", 2500, "total sentences (0 = paper sizes)")
	seed := fs.Int64("seed", 1, "seed")
	order := fs.Int("order", 1, "CRF order (1 or 2)")
	iters := fs.Int("crf-iters", 40, "CRF training iterations")
	alpha := fs.Float64("alpha", 0, "mixture weight of the CRF posterior (0 = default)")
	k := fs.Int("k", 10, "graph out-degree")
	out := fs.String("out", "artifact.gna", "artifact output path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := parseProfile(*profile)
	if err != nil {
		return err
	}
	cfg := synth.DefaultConfig(p, *seed)
	if *sentences > 0 {
		cfg.Sentences = *sentences
	}
	train, test := synth.GenerateSplit(cfg)
	fmt.Printf("corpus %s: %d train / %d frozen sentences\n", p, len(train.Sentences), len(test.Sentences))

	gcfg := graphner.Default()
	gcfg.Order = crf.Order(*order)
	gcfg.CRFIterations = *iters
	gcfg.Alpha = *alpha
	gcfg.K = *k
	fmt.Println("training base CRF...")
	sys, err := graphner.Train(train, gcfg)
	if err != nil {
		return err
	}
	fmt.Println("running transductive TEST pass and freezing...")
	t0 := time.Now()
	art, err := sys.Freeze(test, nil)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	n, err := art.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	g := art.Graph()
	fmt.Printf("froze %d vertices / %d edges in %v\n", g.NumVertices(), g.NumEdges(), time.Since(t0).Round(time.Millisecond))
	fmt.Printf("wrote %s: %d bytes, sha256 %s\n", *out, n, art.Checksum())
	return nil
}
