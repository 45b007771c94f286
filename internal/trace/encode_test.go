package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIsJSONPath pins the suffix dispatch SaveFile/LoadFile share.
func TestIsJSONPath(t *testing.T) {
	for path, want := range map[string]bool{
		"run.json":        true,
		"a/b/run.json":    true,
		".json":           true,
		"run.trace":       false,
		"run.json.trace":  false,
		"jsonrun":         false,
		"run.JSON":        false, // extension match is case-sensitive, as before
		"":                false,
		"run.json/trace":  false,
		"trailing.jsonx":  false,
		"x.bundle":        false,
		"deep/x/y/z.json": true,
	} {
		if got := isJSONPath(path); got != want {
			t.Errorf("isJSONPath(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestLoadFileBadMagic writes a file whose body is not a trace container
// and checks both the binary and JSON load paths reject it with an error
// instead of a panic or a zero trace.
func TestLoadFileBadMagic(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bin, []byte("XXXXXXXXnot a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bin); err == nil {
		t.Fatal("binary load accepted a file with the wrong magic")
	} else if !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("want a bad-magic error, got: %v", err)
	}
	j := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(j, []byte("{ definitely not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(j); err == nil {
		t.Fatal("json load accepted malformed input")
	}
}

// TestLoadFileTruncatedGzip saves a valid binary trace, truncates the gzip
// payload mid-stream, and checks LoadFile surfaces the corruption.
func TestLoadFileTruncatedGzip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{len(whole) - 1, len(whole) / 2, len(binaryMagic) + 3} {
		path := filepath.Join(t.TempDir(), "cut.trace")
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(whole))
		}
	}
}

// TestSaveFileReportsCreateError checks the error path when the target
// path cannot be created.
func TestSaveFileReportsCreateError(t *testing.T) {
	tr := sampleTrace()
	if err := tr.SaveFile(filepath.Join(t.TempDir(), "missing-dir", "t.trace")); err == nil {
		t.Fatal("save into a nonexistent directory succeeded")
	}
}

// TestLoadFileReportsOpenError checks the error path when the source path
// does not exist.
func TestLoadFileReportsOpenError(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.trace")); err == nil {
		t.Fatal("load of a nonexistent file succeeded")
	}
}

// TestReadJSONRejectsOversizedProgram pins the bound on a node's declared
// program length. Mining sizes per-dimension arrays by ProgramLen, so a
// tiny file declaring billions of instructions must fail at load time with
// an error, not pass validation and exhaust memory in the feature stage.
func TestReadJSONRejectsOversizedProgram(t *testing.T) {
	const in = `{"Seed": 1, "Cycles": 10, "Nodes": [{"NodeID": 1, "ProgramLen": 4000000000,
		"Markers": [{"Kind": 3, "Arg": 1, "Cycle": 5, "Deltas": [{"PC": 0, "Count": 1}]}]}]}`
	_, err := ReadJSON(strings.NewReader(in))
	if err == nil {
		t.Fatal("ReadJSON accepted a trace declaring a 4e9-instruction program")
	}
	if !strings.Contains(err.Error(), "program length") {
		t.Fatalf("want a program-length error, got: %v", err)
	}
}
