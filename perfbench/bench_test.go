package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"valora/internal/serving"
	"valora/internal/trace"
)

// TestWrappersArePassThrough replays a prefix of each replay workload
// with and without the timing wrappers (and the trace recorder) and
// requires bit-identical reports.
func TestWrappersArePassThrough(t *testing.T) {
	const prefix = 4000
	for _, w := range []simWorkload{replaySteady(), tenantSLO(), fleetSweep()} {
		t.Run(w.name, func(t *testing.T) {
			var digests [2]string
			for i, traced := range []bool{false, true} {
				var p *probes
				if traced {
					p = &probes{}
				}
				s, err := w.setup(7, p)
				if err != nil {
					t.Fatal(err)
				}
				s.trace = s.trace[:prefix]
				if traced {
					s.cluster.SetTraceRecorder(trace.NewRecorder())
				}
				rep, _, err := replayOnce(w, s)
				if err != nil {
					t.Fatal(err)
				}
				digests[i] = reportDigest(rep)
				if traced {
					tot := p.totals()
					if tot.decide.calls == 0 || tot.layerTime.calls == 0 || tot.dispatch.calls == 0 {
						t.Fatalf("wrappers not on the call path: %+v", tot)
					}
				}
			}
			if digests[0] != digests[1] {
				t.Fatalf("report with wrappers %s differs from report without %s", digests[1], digests[0])
			}
		})
	}
}

// TestDispatchWrapperKeepsMarker: losing serving.StatelessDispatch
// would move the sharded engine from partitioned to epoch mode.
func TestDispatchWrapperKeepsMarker(t *testing.T) {
	if w, _ := wrapDispatch(serving.NewRoundRobin()); !isStateless(w) {
		t.Fatal("wrapped round-robin lost the StatelessDispatch marker")
	}
	if w, _ := wrapDispatch(serving.NewLeastLoaded()); isStateless(w) {
		t.Fatal("wrapped least-loaded gained the StatelessDispatch marker")
	}
}

func isStateless(d serving.DispatchPolicy) bool {
	_, ok := d.(serving.StatelessDispatch)
	return ok
}

// TestMetricsMatchBenchmarkJSON keeps the metric and workload lists in
// the code equal to BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		spec []struct{ Name, Unit, Better string }
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", c.kind, len(c.spec), len(c.code))
			continue
		}
		for i, m := range c.spec {
			if d := c.code[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.kind, i, m, d)
			}
		}
	}
}

// TestChatCheckRejectsBadResponses: the HTTP correctness check must fail
// a response whose usage disagrees with the request.
func TestChatCheckRejectsBadResponses(t *testing.T) {
	b := chatBody{maxTokens: 3, deadline: 100}
	good := `{"object":"chat.completion","choices":[{"message":{"role":"assistant","content":"a b c"},"finish_reason":"stop"}],` +
		`"usage":{"prompt_tokens":5,"completion_tokens":3,"total_tokens":8},"valora":{"ttft_ms":2,"e2e_ms":9}}`
	if _, err := b.check(200, []byte(good)); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"status":     good,
		"object":     strings.Replace(good, `"chat.completion"`, `"text_completion"`, 1),
		"usage":      strings.Replace(good, `"total_tokens":8`, `"total_tokens":9`, 1),
		"max_tokens": strings.Replace(good, `"completion_tokens":3,"total_tokens":8`, `"completion_tokens":4,"total_tokens":9`, 1),
		"timing":     strings.Replace(good, `"e2e_ms":9`, `"e2e_ms":1`, 1),
		"json":       good[:40],
	} {
		status := 200
		if name == "status" {
			status = 500
		}
		if _, err := b.check(status, []byte(bad)); err == nil || errors.Is(err, errRejected) {
			t.Errorf("%s: bad response accepted", name)
		}
	}
	// A KV-cache rejection is a served-fraction miss, not a failure.
	rejected := `{"error":{"message":"request rejected: prompt exceeds the KV cache","type":"invalid_request_error"}}`
	if _, err := b.check(422, []byte(rejected)); !errors.Is(err, errRejected) {
		t.Errorf("422 rejection: got %v, want errRejected", err)
	}
}

// TestCPUSharesFromProfile decodes a real CPU profile and attributes
// its samples.
func TestCPUSharesFromProfile(t *testing.T) {
	cpu := cpuShares{}
	err := cpu.profile(func() error {
		for i := 0; i < 3; i++ {
			w := replaySteady()
			s, err := w.setup(int64(i), nil)
			if err != nil {
				return err
			}
			s.trace = s.trace[:20000]
			if _, _, err := replayOnce(w, s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range cpu.shares() {
		sum += v
	}
	if len(cpu) == 0 || sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares %v sum to %v", cpu.shares(), sum)
	}
}

func TestCPUCategory(t *testing.T) {
	for fn, want := range map[string]string{
		"valora/internal/sim.(*Timeline).Run":    "cpu.sim",
		"valora/internal/serving.(*Server).Step": "cpu.serving",
		"runtime.mallocgc":                       "cpu.runtime",
		"net/http.(*conn).serve":                 "cpu.net",
		"encoding/json.Unmarshal":                "cpu.encoding",
		"valora/internal/tiling.Search":          "cpu.other",
		"main.main":                              "cpu.other",
	} {
		if got := cpuCategory(fn); got != want {
			t.Errorf("cpuCategory(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestLiveRejectionIsNotServed sends a prompt larger than the KV cache
// through the live frontend: it must come back as errRejected and be
// counted by valora_requests_rejected_total, not valora_requests_total.
func TestLiveRejectionIsNotServed(t *testing.T) {
	huge := chatBody{json: []byte(`{"model":"inspect-00","messages":[{"role":"user","content":"x"}],"input_tokens":1000000,"max_tokens":1}`), maxTokens: 1}
	live, _, err := startLive(genBodies(3)[:8])
	if err != nil {
		t.Fatal(err)
	}
	defer live.close()
	live.bodies = append(live.bodies, huge)
	served := live.ok.Load()
	if _, _, err := live.post(8); !errors.Is(err, errRejected) {
		t.Fatalf("oversized prompt: got %v, want errRejected", err)
	}
	sc := live.scrape()
	if sc.err != nil {
		t.Fatal(sc.err)
	}
	if sc.series["valora_requests_rejected_total"] != 1 || int64(sc.requests) != served || live.ok.Load() != served {
		t.Fatalf("rejected %v, requests %v, ok %d, want 1, %d, %d",
			sc.series["valora_requests_rejected_total"], sc.requests, live.ok.Load(), served, served)
	}
}
