package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// lintReport is the shape of BENCH_lint.json: cold/warm wall time of a
// whole-module graphnerlint run, so cache regressions (satellite 1 of the
// contracts PR) show up as a warm-time cliff in CI history.
type lintReport struct {
	GeneratedBy string `json:"generated_by"`
	// ColdWallMs is a full analysis from an empty cache; WarmWallMs is
	// the immediately following run, which should be dominated by the
	// module scan + cache read.
	ColdWallMs       float64 `json:"cold_wall_ms"`
	WarmWallMs       float64 `json:"warm_wall_ms"`
	PackagesAnalyzed int     `json:"packages_analyzed"`
	Findings         int     `json:"findings"`
}

// moduleRoot walks up from the working directory to the enclosing go.mod,
// mirroring the linter's own root discovery.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// runLint benchmarks the contract linter itself: builds graphnerlint once,
// wipes its cache, then times a cold and a warm `graphnerlint -json ./...`
// over this module and writes a JSON report. Exit status 1 (findings) is
// tolerated — the benchmark measures wall time, not cleanliness; the CI
// baseline gate owns that.
func runLint(outPath string, log *os.File) error {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format, args...)
		}
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}

	bin := filepath.Join(os.TempDir(), fmt.Sprintf("graphnerlint-bench-%d", os.Getpid()))
	logf("lint: building graphnerlint\n")
	build := exec.Command("go", "build", "-o", bin, "./cmd/graphnerlint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building graphnerlint: %v\n%s", err, out)
	}
	defer os.Remove(bin)

	cacheDir := filepath.Join(root, ".graphnerlint-cache")
	if err := os.RemoveAll(cacheDir); err != nil {
		return fmt.Errorf("clearing lint cache: %v", err)
	}

	lint := func(label string) (float64, []byte, error) {
		var out bytes.Buffer
		cmd := exec.Command(bin, "-json", "./...")
		cmd.Dir = root
		cmd.Stdout = &out
		start := time.Now()
		err := cmd.Run()
		wall := time.Since(start)
		if err != nil {
			// Exit 1 just means the tree has findings.
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				return 0, nil, fmt.Errorf("%s lint run: %v", label, err)
			}
		}
		logf("lint: %s run %.0f ms\n", label, float64(wall.Microseconds())/1e3)
		return float64(wall.Microseconds()) / 1e3, out.Bytes(), nil
	}

	report := lintReport{GeneratedBy: "benchtables -lint"}
	var coldOut []byte
	if report.ColdWallMs, coldOut, err = lint("cold"); err != nil {
		return err
	}
	if report.WarmWallMs, _, err = lint("warm"); err != nil {
		return err
	}

	var findings []json.RawMessage
	if err := json.Unmarshal(coldOut, &findings); err != nil {
		return fmt.Errorf("parsing -json output: %v", err)
	}
	report.Findings = len(findings)

	// The cache records one entry per analyzed package.
	var cf struct {
		Packages map[string]json.RawMessage `json:"packages"`
	}
	data, err := os.ReadFile(filepath.Join(cacheDir, "results.json"))
	if err != nil {
		return fmt.Errorf("reading lint cache: %v", err)
	}
	if err := json.Unmarshal(data, &cf); err != nil {
		return fmt.Errorf("parsing lint cache: %v", err)
	}
	report.PackagesAnalyzed = len(cf.Packages)

	logf("lint: %d packages, %d findings\n", report.PackagesAnalyzed, report.Findings)
	return writeReport(outPath, &report)
}

// writeReport marshals a report to outPath ("-" for stdout).
func writeReport(outPath string, report any) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}
