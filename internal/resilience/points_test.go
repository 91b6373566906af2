package resilience_test

import (
	"slices"
	"strings"
	"testing"

	_ "repro/internal/cas"
	_ "repro/internal/core"
	_ "repro/internal/driver"
	_ "repro/internal/isom"
	_ "repro/internal/lower"
	_ "repro/internal/profile"
	_ "repro/internal/serve"

	"repro/internal/resilience"
)

// TestRegistryComplete pins the set of registered fault points, each
// beside the test that arms it and asserts its guard's recovery. A new
// point fails this test until it is listed here with a test of its own.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"cas/evict",       // cas: TestInjectedEvictFaultContained
		"cas/read",        // cas: TestInjectedReadFaultDegrades
		"cas/scrub",       // cas: TestInjectedScrubFaultSkipsEntry
		"cas/write",       // cas: TestInjectedWriteFaultDegrades
		"core/clone",      // core: TestFirewallInjectedPanicRollsBack, TestFirewallMidCompileFaultsRollBack
		"core/inline",     // core: TestFirewallInjectedPanicRollsBack, TestFirewallMidCompileFaultsRollBack
		"core/opt",        // core: TestFirewallInjectedPanicRollsBack, TestFirewallMidCompileFaultsRollBack
		"core/outline",    // core: TestFirewallInjectedPanicRollsBack, TestFirewallMidCompileFaultsRollBack
		"driver/frontend", // driver: TestInjectedFrontEndFaultsDegrade
		"isom/decode",     // isom: TestInjectedDecodeFaultIsParseError
		"lease/heartbeat", // cas: TestRenewSurvivesInjectedFault
		"lower/module",    // driver: TestInjectedFrontEndFaultsDegrade
		"profile/read",    // profile: TestInjectedReadFaultIsError
		"serve/dispatch",  // serve: TestWorkerPanicContained
	}
	// This package's own unit tests register throwaway "test/" points.
	var got []string
	for _, name := range resilience.PointNames() {
		if !strings.HasPrefix(name, "test/") {
			got = append(got, name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("registered fault points = %q\nwant %q", got, want)
	}
}
