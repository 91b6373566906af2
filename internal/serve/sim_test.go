package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestRunSharesSimulation: two /run bodies that differ only in their
// tag are two responses but one simulation, replayed from the driver
// cache's simulation memo.
func TestRunSharesSimulation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var sims []RunResponse
	for _, tag := range []string{"first", "second"} {
		body := mustMarshal(RunRequest{
			CompileRequest: CompileRequest{Sources: []string{slowSource}, Tag: tag},
			Inputs:         []int64{1000},
		})
		resp, data := postJSON(t, ts.URL+"/run", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/run %s = %d (%s)", tag, resp.StatusCode, data)
		}
		var rr RunResponse
		if err := json.Unmarshal(data, &rr); err != nil {
			t.Fatal(err)
		}
		sims = append(sims, rr)
	}
	if !reflect.DeepEqual(sims[0].Sim, sims[1].Sim) {
		t.Errorf("sim = %+v then %+v", sims[0].Sim, sims[1].Sim)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if want := `hlod_counter{name="cache.sim.hit"} 1`; !strings.Contains(string(metrics), want) {
		t.Errorf("metrics missing %s:\n%s", want, metrics)
	}
}

// TestStaticDataBeyondMemory: a program whose static data does not fit
// in the machine's memory is a 422 from /run and from profile-fed
// /compile, every time, with no worker panic.
func TestStaticDataBeyondMemory(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	src := []string{"module m; var big [5000000] int; var x int = 7; func main() int { return x; }"}
	for _, tag := range []string{"first", "second"} {
		run := mustMarshal(RunRequest{CompileRequest: CompileRequest{Sources: src, Tag: tag, TimeoutMS: 10_000}})
		compile := mustMarshal(CompileRequest{
			Sources:   src,
			Options:   OptionsJSON{Profile: true, TrainInputs: []int64{1}},
			Tag:       tag,
			TimeoutMS: 10_000,
		})
		for path, body := range map[string][]byte{"/run": run, "/compile": compile} {
			resp, data := postJSON(t, ts.URL+path, body)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("%s %s = %d (%s), want 422", path, tag, resp.StatusCode, data)
			}
		}
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "hlod_panics_total 0") {
		t.Errorf("metrics missing hlod_panics_total 0:\n%s", metrics)
	}
}
