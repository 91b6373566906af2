package isom_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isom"
	"repro/internal/resilience"
)

func openCorpus(t *testing.T, name string) *os.File {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "isom-corrupt", name))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestCorruptCorpus feeds each corrupt object file to the single-module
// reader and checks the failure is a structured *ParseError carrying a
// plausible position and message — never a panic, never an opaque
// string.
func TestCorruptCorpus(t *testing.T) {
	cases := []struct {
		file    string
		wantMsg string // substring of ParseError.Msg
	}{
		{"truncated.isom", "unterminated function"},
		{"bad-opcode.isom", "unknown mnemonic"},
		{"bad-flag.isom", "unknown flag"},
		{"bad-block.isom", "bad block header"},
		{"instr-before-block.isom", "instruction before first block"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			_, err := isom.Read(openCorpus(t, tc.file))
			if err == nil {
				t.Fatalf("corrupt input accepted")
			}
			var pe *isom.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T (%v), want *isom.ParseError", err, err)
			}
			if pe.Line <= 0 {
				t.Errorf("ParseError.Line = %d, want a positive line number", pe.Line)
			}
			if !strings.Contains(pe.Msg, tc.wantMsg) {
				t.Errorf("ParseError.Msg = %q, want substring %q", pe.Msg, tc.wantMsg)
			}
		})
	}
}

// TestInjectedDecodeFaultIsParseError proves the "isom/decode" point: a
// panic inside the decoder comes back from Read as a *ParseError whose
// message names the point, never as a crash.
func TestInjectedDecodeFaultIsParseError(t *testing.T) {
	t.Cleanup(resilience.DisarmAll)
	if _, err := resilience.Arm("isom/decode", 0); err != nil {
		t.Fatal(err)
	}
	_, err := isom.Read(strings.NewReader("module m\n"))
	var pe *isom.ParseError
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "injected fault at isom/decode") {
		t.Fatalf("armed Read = %v, want a *ParseError naming the injected fault", err)
	}
}
