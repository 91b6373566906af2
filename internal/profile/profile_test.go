package profile_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/resilience"
)

func TestWriteReadRoundTrip(t *testing.T) {
	d := profile.New()
	d.Blocks["main:main"] = []int64{1, 5, 0, 9}
	d.Blocks["lib:helper"] = []int64{1000000007}
	d.Blocks["lib:empty"] = nil

	var buf strings.Builder
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := profile.Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("read: %v\n%s", err, buf.String())
	}
	if len(d2.Blocks) != len(d.Blocks) {
		t.Fatalf("got %d entries, want %d", len(d2.Blocks), len(d.Blocks))
	}
	for name, counts := range d.Blocks {
		got := d2.Blocks[name]
		if len(got) != len(counts) {
			t.Errorf("%s: %v vs %v", name, got, counts)
			continue
		}
		for i := range counts {
			if got[i] != counts[i] {
				t.Errorf("%s[%d] = %d, want %d", name, i, got[i], counts[i])
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	prop := func(counts []int64, suffix uint16) bool {
		d := profile.New()
		name := "m:f" + string(rune('a'+suffix%26))
		d.Blocks[name] = counts
		var buf strings.Builder
		if err := d.Write(&buf); err != nil {
			return false
		}
		d2, err := profile.Read(strings.NewReader(buf.String()))
		if err != nil {
			return false
		}
		got := d2.Blocks[name]
		if len(got) != len(counts) {
			return false
		}
		for i := range counts {
			if got[i] != counts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		"func\n",
		"notfunc a 1 2\n",
		"func m:f one two\n",
	} {
		if _, err := profile.Read(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// TestInjectedReadFaultIsError proves the "profile/read" point: a panic
// inside the reader comes back from Read as an error naming the point,
// never as a crash.
func TestInjectedReadFaultIsError(t *testing.T) {
	t.Cleanup(resilience.DisarmAll)
	if _, err := resilience.Arm("profile/read", 0); err != nil {
		t.Fatal(err)
	}
	d, err := profile.Read(strings.NewReader(""))
	if err == nil || d != nil || !strings.Contains(err.Error(), "injected fault at profile/read") {
		t.Fatalf("armed Read = %v, %v; want a nil database and an error naming the injected fault", d, err)
	}
}

func TestTotalCalls(t *testing.T) {
	d := profile.New()
	d.Blocks["a:a"] = []int64{3, 100}
	d.Blocks["b:b"] = []int64{4}
	if got := d.TotalCalls(); got != 7 {
		t.Errorf("TotalCalls = %d, want 7", got)
	}
}

func TestMerge(t *testing.T) {
	a := profile.New()
	a.Blocks["m:f"] = []int64{10, 20}
	b := profile.New()
	b.Blocks["m:f"] = []int64{2, 4, 6}
	b.Blocks["m:g"] = []int64{8}

	a.Merge(b, 100)
	got := a.Blocks["m:f"]
	want := []int64{12, 24, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("m:f[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if a.Blocks["m:g"][0] != 8 {
		t.Errorf("m:g not merged: %v", a.Blocks["m:g"])
	}

	// Half weight.
	c := profile.New()
	c.Blocks["m:f"] = []int64{100}
	a2 := profile.New()
	a2.Merge(c, 50)
	if a2.Blocks["m:f"][0] != 50 {
		t.Errorf("weighted merge = %v, want 50", a2.Blocks["m:f"])
	}
}

func TestMergeRoundsToNearest(t *testing.T) {
	// A count of 1 at half weight must survive as 1, not truncate to 0:
	// a rarely-taken block that vanishes from the profile would flip the
	// HLO's hot/cold classification of its function.
	src := profile.New()
	src.Blocks["m:f"] = []int64{1, 3, 49, 50, 99}
	d := profile.New()
	d.Merge(src, 50)
	want := []int64{1, 2, 25, 25, 50} // round half up
	for i, w := range want {
		if got := d.Blocks["m:f"][i]; got != w {
			t.Errorf("merge(weight=50)[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestMergeMaxInt64NoOverflow(t *testing.T) {
	src := profile.New()
	src.Blocks["m:f"] = []int64{math.MaxInt64}

	// Weight 100 is an exact pass-through even at the extreme.
	d := profile.New()
	d.Merge(src, 100)
	if got := d.Blocks["m:f"][0]; got != math.MaxInt64 {
		t.Errorf("merge(weight=100) of MaxInt64 = %d, want %d", got, int64(math.MaxInt64))
	}

	// Half weight must stay positive (the naive c*weight/100 wraps).
	d2 := profile.New()
	d2.Merge(src, 50)
	if got := d2.Blocks["m:f"][0]; got <= 0 || got < math.MaxInt64/2 {
		t.Errorf("merge(weight=50) of MaxInt64 = %d: overflowed or lost magnitude", got)
	}
}

func TestReadDuplicateFuncLines(t *testing.T) {
	// A later line for the same function replaces the earlier one, so
	// concatenated databases behave as overlays.
	src := "func m:f 1 2 3\nfunc m:g 9\nfunc m:f 7 8\n"
	d, err := profile.Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	got := d.Blocks["m:f"]
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Errorf("duplicate func line: got %v, want [7 8]", got)
	}
	if g := d.Blocks["m:g"]; len(g) != 1 || g[0] != 9 {
		t.Errorf("m:g clobbered: %v", g)
	}
}

func TestEmptyDatabaseRoundTrip(t *testing.T) {
	var buf strings.Builder
	if err := profile.New().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "" {
		t.Errorf("empty database serialized to %q, want empty", buf.String())
	}
	d, err := profile.Read(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks) != 0 {
		t.Errorf("empty input parsed to %d entries", len(d.Blocks))
	}
	// Whitespace-only input is also an empty database.
	d2, err := profile.Read(strings.NewReader("\n  \n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Blocks) != 0 {
		t.Errorf("blank input parsed to %d entries", len(d2.Blocks))
	}
}

func TestMaxInt64RoundTrip(t *testing.T) {
	d := profile.New()
	d.Blocks["m:hot"] = []int64{math.MaxInt64, 0, math.MaxInt64 - 1}
	var buf strings.Builder
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := profile.Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	got := d2.Blocks["m:hot"]
	for i, w := range d.Blocks["m:hot"] {
		if got[i] != w {
			t.Errorf("m:hot[%d] = %d, want %d", i, got[i], w)
		}
	}
}

func TestAttachZeroBlockFunc(t *testing.T) {
	// A declaration-only function (no blocks) must not panic Attach and
	// must come out with a zero entry count, while its neighbors still
	// receive their profiled counts.
	stub := &ir.Func{Name: "stub", Module: "m", QName: "m:stub", EntryCount: 42}
	body := &ir.Func{
		Name: "body", Module: "m", QName: "m:body",
		Blocks: []*ir.Block{{Index: 0}, {Index: 1}},
	}
	p := ir.NewProgram(&ir.Module{Name: "m", Funcs: []*ir.Func{stub, body}})

	d := profile.New()
	d.Blocks["m:body"] = []int64{17, 3}
	d.Blocks["m:stub"] = []int64{99} // stale entry for a now-bodyless func
	d.Attach(p)

	if stub.EntryCount != 0 {
		t.Errorf("zero-block func EntryCount = %d, want 0", stub.EntryCount)
	}
	if body.EntryCount != 17 {
		t.Errorf("body EntryCount = %d, want 17", body.EntryCount)
	}
	if body.Blocks[1].Count != 3 {
		t.Errorf("body block 1 count = %d, want 3", body.Blocks[1].Count)
	}
}
