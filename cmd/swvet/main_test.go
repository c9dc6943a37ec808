package main

import (
	"os"
	"strings"
	"testing"
)

func capture(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.CreateTemp(t.TempDir(), "err")
	if err != nil {
		t.Fatal(err)
	}
	code = run(args, outF, errF)
	for _, f := range []*os.File{outF, errF} {
		if _, err := f.Seek(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	ob, _ := os.ReadFile(outF.Name())
	eb, _ := os.ReadFile(errF.Name())
	return code, string(ob), string(eb)
}

func TestList(t *testing.T) {
	code, out, _ := capture(t, []string{"-list"})
	if code != 0 {
		t.Fatalf("swvet -list exited %d", code)
	}
	for _, name := range []string{"scratchalias", "walltime", "maporder", "sinkleak", "errcmp", "obsescape"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out)
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	code, _, errOut := capture(t, []string{"-run", "nosuch", "./..."})
	if code != 2 {
		t.Fatalf("unknown analyzer: got exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown analyzer") {
		t.Errorf("stderr missing explanation: %q", errOut)
	}
}

// TestCleanPackage runs the real loader and suite over this command's own
// package, which must be finding-free.
func TestCleanPackage(t *testing.T) {
	code, out, errOut := capture(t, []string{"."})
	if code != 0 {
		t.Fatalf("swvet . exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("expected no findings, got:\n%s", out)
	}
}

// TestFindings points the suite at a fixture tree (an analyzer's testdata
// package, which deliberately violates errcmp) and expects exit 1 with
// file:line findings.
func TestFindings(t *testing.T) {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../../internal/analysis/passes/errcmp/testdata/src/a"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(dir); err != nil {
			t.Fatal(err)
		}
	}()
	code, out, _ := capture(t, []string{"-run", "errcmp", "."})
	if code != 1 {
		t.Fatalf("fixture scan: got exit %d, want 1\nstdout:\n%s", code, out)
	}
	if !strings.Contains(out, "(errcmp)") {
		t.Errorf("findings missing analyzer tag:\n%s", out)
	}
}
