package shellsvc

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzInterp runs the input as a command line in a fresh sandbox that
// has a sibling file outside it, under a 50 ms context. The run must not
// panic, must return within a second, and must leave everything outside
// the sandbox as it was.
func FuzzInterp(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		root := t.TempDir()
		sandbox := filepath.Join(root, "sandbox")
		if err := os.Mkdir(sandbox, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "outside.txt"), []byte("outside\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		before := outsideState(t, root, sandbox)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		tokenize(line)
		start := time.Now()
		(&interp{ctx: ctx, sandbox: sandbox, cwd: sandbox}).run(line, "fuzz", io.Discard, io.Discard)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%q ran for %v under a 50 ms context", line, d)
		}
		if after := outsideState(t, root, sandbox); !maps.Equal(before, after) {
			t.Fatalf("%q changed files outside the sandbox:\nbefore %v\nafter  %v", line, before, after)
		}
	})
}

// outsideState describes every path under root but outside sandbox by
// its mode, size, modification time and contents.
func outsideState(t *testing.T, root, sandbox string) map[string]string {
	t.Helper()
	state := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if p == sandbox {
			return fs.SkipDir
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		var data []byte
		if info.Mode().IsRegular() {
			if data, err = os.ReadFile(p); err != nil {
				return err
			}
		}
		state[p] = fmt.Sprintf("%v %d %v %q", info.Mode(), info.Size(), info.ModTime().UnixNano(), data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}
