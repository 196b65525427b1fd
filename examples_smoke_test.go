package replicatree_test

// Every example must build, run to completion and print exactly its
// pinned output, testdata/examples/<name>.txt. Examples are package
// main and cannot be imported, so this shells out to the local
// toolchain; skipped under -short. After a deliberate change to what
// an example prints, rewrite its file with
//
//	go run ./examples/<name> > testdata/examples/<name>.txt

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke test skipped in -short mode")
	}
	for _, ex := range []string{"quickstart", "vod", "qos", "policies", "hetero", "replan"} {
		ex := ex
		t.Run(ex, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "examples", ex+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./examples/"+ex)
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s%s", ex, err, out, stderr.Bytes())
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("example %s printed\n%s\nwant (testdata/examples/%s.txt)\n%s", ex, out, ex, want)
			}
		})
	}
}
