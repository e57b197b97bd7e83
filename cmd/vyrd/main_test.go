package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"

	"repro/vyrd"
)

// TestMain lets the test binary double as the vyrd command: when re-exec'd
// with VYRD_MAIN_RUN=1 it runs main() (and exits through finish's exit
// codes) instead of the test suite, so exit-code behavior is pinned by a
// real process boundary.
func TestMain(m *testing.M) {
	if os.Getenv("VYRD_MAIN_RUN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// streamLog records a single-threaded multiset trace through the probe API
// and returns the serialized binary log, the exact bytes `vyrd -save`
// would produce (or a vyrdd capture would ship).
func streamLog(t *testing.T, violate bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	log := vyrd.NewLog(vyrd.LevelIO)
	if err := log.AttachSink(&buf); err != nil {
		t.Fatal(err)
	}
	p := log.NewProbe()
	for i := 0; i < 20; i++ {
		inv := p.Call("Insert", i%5)
		inv.Commit("")
		inv.Return(true)
	}
	if violate {
		// LookUp of a never-inserted element returning true: an observer
		// violation under the multiset specification.
		inv := p.Call("LookUp", 999)
		inv.Return(true)
	}
	log.Close()
	if err := log.SinkErr(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadStdinExitCodes pins the shell contract of `vyrd -load -`: the
// framed log streams in on stdin, and the process exits 0 on a clean
// check, 1 on a refinement violation, and 2 — naming the version found and
// the versions read — on a version-1 artifact of the retired gob encoding.
func TestLoadStdinExitCodes(t *testing.T) {
	v1, err := os.ReadFile("../../vyrd/testdata/fig6_v1_gob.log")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		stdin []byte
		want  int
		says  string
	}{
		{"clean", streamLog(t, false), 0, ""},
		{"violation", streamLog(t, true), 1, ""},
		{"version-1", v1, 2, "stream has format version 1, this build reads versions 2-3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0],
				"-subject", "Multiset-Array", "-mode", "io", "-load", "-")
			cmd.Env = append(os.Environ(), "VYRD_MAIN_RUN=1")
			cmd.Stdin = bytes.NewReader(tc.stdin)
			out, err := cmd.CombinedOutput()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("re-exec: %v\n%s", err, out)
			}
			if code != tc.want || !bytes.Contains(out, []byte(tc.says)) {
				t.Errorf("exit code %d, want %d saying %q\noutput:\n%s", code, tc.want, tc.says, out)
			}
		})
	}
}
