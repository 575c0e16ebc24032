package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocbt"
)

// TestRunListEnumeratesRegistry pins `-list`: every registered experiment
// appears with its description.
func TestRunListEnumeratesRegistry(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	names := nocbt.ExperimentNames()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	for _, name := range names {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
	if len(strings.Split(strings.TrimRight(out, "\n"), "\n")) != len(names) {
		t.Errorf("-list did not print one line per experiment:\n%s", out)
	}
}

// TestRunUnknownRunName pins the -run failure mode: the error names the
// unknown experiment and lists the available ones.
func TestRunUnknownRunName(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-run", "fig99"}, &sb)
	if err == nil {
		t.Fatal("unknown -run name did not fail")
	}
	for _, want := range append([]string{"fig99"}, nocbt.ExperimentNames()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRunFormatJSONRoundTrips pins `-run <name> -format json`: the output
// must decode through encoding/json into the structured Result shape.
func TestRunFormatJSONRoundTrips(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "power", "-format", "json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var decoded nocbt.Result
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("-format json emitted invalid JSON: %v\n%s", err, sb.String())
	}
	if decoded.Experiment != "power" || len(decoded.Tables) == 0 {
		t.Errorf("unexpected decoded result: %+v", decoded)
	}
}

// TestRunFormatCSV pins `-format csv`: a header row and data rows.
func TestRunFormatCSV(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "fig1", "-format", "csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "x,y=0,") {
		t.Errorf("unexpected CSV output:\n%s", sb.String())
	}
}

// TestRunFormatErrors rejects unknown formats and -format with `all`.
func TestRunFormatErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "fig1", "-format", "yaml"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "unknown format") {
		t.Errorf("unknown format not rejected: %v", err)
	}
	if err := run([]string{"-format", "json", "-run", "all"}, &sb); err == nil {
		t.Error("all with -format json not rejected")
	}
	if err := run([]string{"-run", "fig1", "fig1"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "unexpected argument") {
		t.Errorf("-run plus positional experiment not rejected: %v", err)
	}
	// The legacy row-array -json flag is gone; -format json replaces it.
	if err := run([]string{"-json", "-run", "sweep"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "not defined") {
		t.Errorf("removed -json flag not rejected: %v", err)
	}
}

// TestRunOutputFile pins -o: the rendering lands in the file, not stdout.
func TestRunOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig1.json")
	var sb strings.Builder
	if err := run([]string{"-run", "fig1", "-format", "json", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("-o still wrote to stdout: %q", sb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded nocbt.Result
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("-o file is not valid JSON: %v", err)
	}
	if decoded.Experiment != "fig1" {
		t.Errorf("decoded experiment = %q", decoded.Experiment)
	}
}

// TestAtomicWriteFile pins the -o write discipline: replacement is atomic
// (temp file + rename), so a failed write can never leave a truncated
// target, and successful writes leave no temp files behind.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(path, []byte("previous content"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(path, []byte("new content")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "new content" {
		t.Fatalf("after write: %q, %v", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp file left behind: %v", entries)
	}

	// A write that cannot even create its temp file (the "directory" is a
	// regular file) must fail without touching anything.
	bad := filepath.Join(path, "sub.txt") // path is a file, not a dir
	if err := atomicWriteFile(bad, []byte("x")); err == nil {
		t.Error("write into a non-directory succeeded")
	}
	if data, _ := os.ReadFile(path); string(data) != "new content" {
		t.Errorf("failed write corrupted an unrelated target: %q", data)
	}

	// Non-regular targets write through instead of being replaced: a
	// symlinked -o must update the link's target and stay a symlink.
	link := filepath.Join(dir, "link.txt")
	if err := os.Symlink(path, link); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(link, []byte("through the link")); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Lstat(link); err != nil || info.Mode()&os.ModeSymlink == 0 {
		t.Errorf("symlink target was replaced by a regular file: %v, %v", info, err)
	}
	if data, _ := os.ReadFile(path); string(data) != "through the link" {
		t.Errorf("write did not reach the symlink's target: %q", data)
	}
}

// TestRunOutputFileKeptOnFailure is the -o regression: when the run fails
// before rendering completes, a pre-existing output file keeps its old
// content instead of being truncated.
func TestRunOutputFileKeptOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-run", "fig99", "-o", path}, &sb); err == nil {
		t.Fatal("unknown experiment did not fail")
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "precious" {
		t.Errorf("failed run clobbered -o file: %q, %v", data, err)
	}
}

// TestRunTimeoutAborts pins -timeout: an expired deadline aborts the run
// with context.DeadlineExceeded instead of simulating to completion.
func TestRunTimeoutAborts(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-timeout", "1ns", "-quick", "-platforms", "4x4", "-formats", "fixed8", "-run", "sweep"}, &sb)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired -timeout returned %v, want context.DeadlineExceeded", err)
	}
	sb.Reset()
	if err := run([]string{"-timeout", "1m", "-run", "fig1"}, &sb); err != nil {
		t.Errorf("generous -timeout failed a fast experiment: %v", err)
	}
	if err := run([]string{"-timeout", "bogus", "-run", "fig1"}, &sb); err == nil {
		t.Error("malformed -timeout accepted")
	}
}

func TestRunFig1(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "fig1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "E = x + y - xy/16") {
		t.Errorf("fig1 output missing formula:\n%s", sb.String())
	}
}

func TestRunTable2AndPower(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "table2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Tab. II") {
		t.Errorf("table2 output wrong:\n%s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"-run", "power"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "link power") {
		t.Errorf("power output wrong:\n%s", sb.String())
	}
}

func TestRunQuickTable1(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-quick", "-run", "table1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Tab. I") {
		t.Errorf("table1 output wrong:\n%s", sb.String())
	}
}

func TestRunSweepJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 3 NoC inferences; skipped in -short mode")
	}
	var sb strings.Builder
	err := run([]string{"-quick", "-run", "sweep", "-platforms", "4x4", "-formats", "fixed8", "-format", "json"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	var res nocbt.Result
	if err := json.Unmarshal([]byte(sb.String()), &res); err != nil {
		t.Fatalf("sweep -format json emitted invalid JSON: %v\n%s", err, sb.String())
	}
	if len(res.Tables) != 1 {
		t.Fatalf("expected one sweep table, got %d", len(res.Tables))
	}
	table := res.Tables[0]
	if len(table.Rows) != 3 {
		t.Fatalf("expected 3 rows (one per ordering), got %d", len(table.Rows))
	}
	col := func(name string) any {
		for i, c := range table.Columns {
			if c == name {
				return table.Rows[0][i]
			}
		}
		t.Fatalf("sweep table has no %q column: %v", name, table.Columns)
		return nil
	}
	if col("Platform") != "4x4 MC2" || col("Format") != "fixed-8" {
		t.Errorf("unexpected sweep row: %v", table.Rows[0])
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-h"}, &sb); err != nil {
		t.Errorf("-h returned error: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "nosuch"}, &sb); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment not rejected: %v", err)
	}
	if err := run([]string{}, &sb); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("missing experiment not rejected: %v", err)
	}
	if err := run([]string{"fig1"}, &sb); err == nil || !strings.Contains(err.Error(), "-run") {
		t.Errorf("positional experiment not rejected: %v", err)
	}
	if err := run([]string{"-platforms", "9x9", "-run", "sweep"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "unknown platform") {
		t.Errorf("bad platform not rejected: %v", err)
	}
	if err := run([]string{"-formats", "fp64", "-run", "sweep"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "unknown format") {
		t.Errorf("bad format not rejected: %v", err)
	}
	if err := run([]string{"-seeds", "x", "-run", "sweep"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "bad seed") {
		t.Errorf("bad seed not rejected: %v", err)
	}
	if err := run([]string{"-seeds", "1,23x", "-run", "sweep"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "bad seed") {
		t.Errorf("seed with trailing garbage not rejected: %v", err)
	}
}

// TestSweepSpecParsing runs the sweep flags' vocabulary through
// nocbt.SweepAxes.Spec, the one parser btexp and btserved share; malformed
// integers never reach it because the list flags reject them.
func TestSweepSpecParsing(t *testing.T) {
	spec, err := nocbt.SweepAxes{
		Platforms:  []string{"8x8mc4", "8x8mc8"},
		Formats:    []string{"float32"},
		Models:     []string{"lenet", "darknet"},
		Seeds:      []int64{3, 4},
		Batches:    []int{1, 4},
		Orderings:  []string{"o0", "hamming-nn"},
		Codings:    []string{"none", "businvert"},
		Precisions: []int{4, 8},
		Topologies: []string{"mesh", "torus"},
	}.Spec(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Batches) != 2 || spec.Batches[0] != 1 || spec.Batches[1] != 4 {
		t.Errorf("batches parsed wrong: %+v", spec.Batches)
	}
	for _, bad := range []struct {
		what string
		axes nocbt.SweepAxes
	}{
		{"batch size 0", nocbt.SweepAxes{Batches: []int{0}}},
		{"unknown ordering", nocbt.SweepAxes{Orderings: []string{"o9"}}},
		{"unknown link coding", nocbt.SweepAxes{Codings: []string{"huffman"}}},
		{"unsupported precision", nocbt.SweepAxes{Precisions: []int{7}}},
		{"unknown topology", nocbt.SweepAxes{Topologies: []string{"hypercube"}}},
	} {
		if _, err := bad.axes.Spec(1, false); err == nil {
			t.Errorf("%s not rejected", bad.what)
		}
	}
	var sb strings.Builder
	if err := run([]string{"-batches", "2x", "-run", "sweep"}, &sb); err == nil {
		t.Error("malformed batch size not rejected")
	}
	if err := run([]string{"-precisions", "4x", "-run", "sweep"}, &sb); err == nil {
		t.Error("malformed precision not rejected")
	}
	if len(spec.Precisions) != 2 || spec.Precisions[0] != 4 || spec.Precisions[1] != 8 {
		t.Errorf("precisions parsed wrong: %+v", spec.Precisions)
	}
	if len(spec.Orderings) != 2 || spec.Orderings[0] != nocbt.O0 || spec.Orderings[1] != nocbt.HammingNN {
		t.Errorf("orderings parsed wrong: %+v", spec.Orderings)
	}
	if len(spec.Codings) != 2 || spec.Codings[0] != "none" || spec.Codings[1] != "businvert" {
		t.Errorf("codings parsed wrong: %+v", spec.Codings)
	}
	if len(spec.Platforms) != 2 || spec.Platforms[0].Name != "8x8 MC4" {
		t.Errorf("platforms parsed wrong: %+v", spec.Platforms)
	}
	if len(spec.Geometries) != 1 || spec.Geometries[0].LinkBits != 512 {
		t.Errorf("formats parsed wrong: %+v", spec.Geometries)
	}
	if len(spec.Models) != 2 || spec.Models[1] != "darknet" {
		t.Errorf("models parsed wrong: %+v", spec.Models)
	}
	if len(spec.Seeds) != 2 || spec.Seeds[0] != 3 || spec.Seeds[1] != 4 {
		t.Errorf("seeds parsed wrong: %+v", spec.Seeds)
	}
	if len(spec.Topologies) != 2 || spec.Topologies[0] != "mesh" || spec.Topologies[1] != "torus" {
		t.Errorf("topologies parsed wrong: %+v", spec.Topologies)
	}
	// The paper's long ordering aliases resolve through the shared parser.
	alias, err := nocbt.SweepAxes{Orderings: []string{"baseline", "Separated"}}.Spec(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(alias.Orderings) != 2 || alias.Orderings[0] != nocbt.O0 || alias.Orderings[1] != nocbt.O2 {
		t.Errorf("ordering aliases parsed wrong: %+v", alias.Orderings)
	}
}
