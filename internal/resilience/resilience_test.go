package resilience

import (
	"sync"
	"testing"
)

func TestRegisterIdempotent(t *testing.T) {
	a := Register("test/idem")
	b := Register("test/idem")
	if a != b {
		t.Fatalf("Register returned distinct points for the same name")
	}
}

func TestInjectOneShotWithSkip(t *testing.T) {
	p := Register("test/oneshot")
	if _, err := Arm("test/oneshot", 2); err != nil {
		t.Fatal(err)
	}
	fired := 0
	hit := func() {
		defer func() {
			if r := recover(); r != nil {
				if pt, ok := IsInjected(r); !ok || pt != "test/oneshot" {
					t.Fatalf("unexpected panic value %v", r)
				}
				fired++
			}
		}()
		p.Inject()
	}
	for i := 0; i < 10; i++ {
		hit()
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want exactly 1 (one-shot)", fired)
	}
	if p.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", p.Fired())
	}
	// Re-arming starts a fresh count.
	if _, err := Arm("test/oneshot", 0); err != nil {
		t.Fatal(err)
	}
	Disarm("test/oneshot")
	if p.Fired() != 0 {
		t.Fatalf("Fired() = %d after re-arming, want 0", p.Fired())
	}
	// The skip count means hits 1 and 2 pass, hit 3 fires.
	p2 := Register("test/oneshot2")
	if _, err := Arm("test/oneshot2", 2); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		p2.Inject() // must not panic
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("third hit did not fire with skip=2")
			}
		}()
		p2.Inject()
	}()
}

func TestArmUnknown(t *testing.T) {
	if _, err := Arm("test/never-registered", 0); err == nil {
		t.Fatalf("arming an unknown point did not error")
	}
}

func TestDisarm(t *testing.T) {
	p := Register("test/disarm")
	if _, err := Arm("test/disarm", 0); err != nil {
		t.Fatal(err)
	}
	Disarm("test/disarm")
	p.Inject() // must not panic
	if _, err := Arm("test/disarm", 0); err != nil {
		t.Fatal(err)
	}
	DisarmAll()
	p.Inject() // must not panic
}

func TestConcurrentInjectFiresOnce(t *testing.T) {
	p := Register("test/race")
	if _, err := Arm("test/race", 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}()
			for j := 0; j < 100; j++ {
				p.Inject()
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("concurrent arming fired %d times, want exactly 1", fired)
	}
}

func TestParseFailPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want FailPolicy
		ok   bool
	}{
		{"", FailAbort, true},
		{"abort", FailAbort, true},
		{"rollback", FailRollback, true},
		{"skip-func", FailSkipFunc, true},
		{"bogus", FailAbort, false},
	}
	for _, c := range cases {
		got, err := ParseFailPolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseFailPolicy(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	for _, p := range []FailPolicy{FailAbort, FailRollback, FailSkipFunc} {
		rt, err := ParseFailPolicy(p.String())
		if err != nil || rt != p {
			t.Errorf("round-trip %v failed: %v, %v", p, rt, err)
		}
	}
}

func TestPointsSorted(t *testing.T) {
	Register("test/zz")
	Register("test/aa")
	names := PointNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("PointNames not sorted: %v", names)
		}
	}
	if lookup("test/aa") == nil {
		t.Fatalf("lookup failed for registered point")
	}
}
