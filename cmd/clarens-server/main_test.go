package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// asMain makes the test binary run the command itself, so a test can
// drive main through a fresh process and read what it prints.
const asMain = "CLARENS_SERVER_TEST_AS_MAIN"

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		// Only the command's own flags, under the command's name.
		os.Args[0] = "clarens-server"
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestHelpGolden pins the flag surface: names, types, defaults and
// usage text, as -h prints them. Regenerate with -update after an
// intended flag change.
func TestHelpGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), asMain+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("clarens-server -h: %v\n%s", err, out)
	}
	golden := filepath.Join("testdata", "help.golden")
	if *update {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("clarens-server -h differs from %s (rerun with -update if the change is intended):\n%s", golden, out)
	}
}
