//valora:parallel HTTP load generator: the open-loop schedule goroutine, the nproc client workers and the frontend's net/http server goroutines are the workload itself; every goroutine is joined before its window's numbers are read

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"valora/internal/lmm"
	"valora/internal/serving"
	"valora/internal/trace"
)

// http-chat shape: OpenAI chat bodies over httpAdapters registered
// adapters, offered open-loop at httpRate requests per second.
const (
	httpAdapters     = 16
	httpRate         = 2000
	httpBodies       = 4096 // distinct pre-generated bodies, cycled
	httpWarmup       = 1000 // closed-loop requests sent by every set-up
	httpSetupRepeats = 15
	// window is the unit the measured phase is made of: the run
	// alternates one open-loop and one closed-loop window until its
	// budget is spent, so both loops sample the whole run.
	window = 500 * time.Millisecond
)

// chatBody is one pre-generated request and the completion it expects.
type chatBody struct {
	json      []byte
	maxTokens int
	deadline  float64 // ms, virtual
}

// genBodies builds the seeded request mix: text-only and one-image
// prompts, a realtime class with short answers and a 100 ms deadline,
// and an interactive class with longer answers and a 500 ms deadline.
func genBodies(seed int64) []chatBody {
	rng := rand.New(rand.NewSource(seed))
	words := strings.Fields("inspect the forklift lane for blocked exits and count pallets near dock door seven today")
	out := make([]chatBody, httpBodies)
	for i := range out {
		// Adapter popularity is skewed: low IDs are hot.
		adapter := int(float64(httpAdapters) * rng.Float64() * rng.Float64())
		var text strings.Builder
		for n := 8 + rng.Intn(120); n > 0; n-- {
			text.WriteString(words[rng.Intn(len(words))])
			text.WriteByte(' ')
		}
		var content any = text.String()
		if rng.Float64() < 0.35 {
			content = []map[string]any{
				{"type": "text", "text": text.String()},
				{"type": "image_url", "image_url": map[string]string{"url": fmt.Sprintf("https://cams.example/frame/%d.jpg", i)}},
			}
		}
		// Deadlines sit near each class's 80th-percentile virtual
		// latency, so slo_attainment moves both ways.
		user, maxTokens, deadline := "interactive", 8+rng.Intn(41), 500.0
		if rng.Float64() < 0.4 {
			user, maxTokens, deadline = "realtime", 1+rng.Intn(8), 100.0
		}
		b, err := json.Marshal(map[string]any{
			"model":       adapterName(adapter),
			"messages":    []map[string]any{{"role": "user", "content": content}},
			"max_tokens":  maxTokens,
			"user":        user,
			"deadline_ms": deadline,
		})
		if err != nil {
			panic(err) // maps of strings and numbers always marshal
		}
		out[i] = chatBody{json: b, maxTokens: maxTokens, deadline: deadline}
	}
	return out
}

func adapterName(i int) string { return fmt.Sprintf("inspect-%02d", i) }

// chatResponse is the part of a chat.completion the benchmark checks.
type chatResponse struct {
	Object  string `json:"object"`
	Choices []struct {
		Message struct {
			Role    string `json:"role"`
			Content string `json:"content"`
		} `json:"message"`
		FinishReason string `json:"finish_reason"`
	} `json:"choices"`
	Usage struct {
		Prompt     int `json:"prompt_tokens"`
		Completion int `json:"completion_tokens"`
		Total      int `json:"total_tokens"`
	} `json:"usage"`
	Valora struct {
		TTFT float64 `json:"ttft_ms"`
		E2E  float64 `json:"e2e_ms"`
	} `json:"valora"`
}

// errRejected marks a request the frontend refused because its prompt
// does not fit the KV cache: a served-fraction miss, not a failure.
var errRejected = errors.New("request rejected")

// check validates a response body against the request that produced it.
func (b chatBody) check(status int, body []byte) (chatResponse, error) {
	var r chatResponse
	if status == http.StatusUnprocessableEntity && bytes.Contains(body, []byte("request rejected")) {
		return r, errRejected
	}
	if status != http.StatusOK {
		return r, fmt.Errorf("status %d: %.200s", status, body)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("response is not JSON: %w", err)
	}
	switch {
	case r.Object != "chat.completion":
		return r, fmt.Errorf("object %q, want chat.completion", r.Object)
	case len(r.Choices) != 1 || r.Choices[0].Message.Role != "assistant" || r.Choices[0].Message.Content == "" ||
		r.Choices[0].FinishReason != "stop":
		return r, fmt.Errorf("malformed choices: %.200s", body)
	case r.Usage.Prompt <= 0 || r.Usage.Completion != b.maxTokens || r.Usage.Total != r.Usage.Prompt+r.Usage.Completion:
		return r, fmt.Errorf("inconsistent usage %+v for max_tokens %d", r.Usage, b.maxTokens)
	case r.Valora.TTFT <= 0 || r.Valora.E2E < r.Valora.TTFT:
		return r, fmt.Errorf("inconsistent virtual timing %+v", r.Valora)
	}
	return r, nil
}

// handlerTimer wraps the frontend's http.Handler and records the time
// each request spends inside ServeHTTP while enabled.
type handlerTimer struct {
	inner http.Handler
	on    atomic.Bool
	mu    sync.Mutex
	ms    []float64
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	d := ms(time.Since(start))
	h.mu.Lock()
	h.ms = append(h.ms, d)
	h.mu.Unlock()
}

// samples returns the recorded times. A handler may still be appending
// after its client has read the response, hence the lock.
func (h *handlerTimer) samples() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.ms...)
}

// liveServer is one running frontend behind a loopback HTTP server.
type liveServer struct {
	front  *serving.Frontend
	timer  *handlerTimer
	srv    *httptest.Server
	client *http.Client
	bodies []chatBody
	ok     atomic.Int64 // successful chat responses since start
	next   atomic.Int64 // body cursor
}

func (s *liveServer) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// startLive builds a frontend, serves it and warms it up with
// closed-loop traffic.
func startLive(bodies []chatBody) (*liveServer, outcome, error) {
	front := serving.NewFrontend(serving.SystemVaLoRA, a100(), lmm.QwenVL7B())
	names := make([]string, httpAdapters)
	for i := range names {
		names[i] = adapterName(i)
	}
	front.RegisterAdapters(names...)
	timer := &handlerTimer{inner: front}
	n := runtime.GOMAXPROCS(0)
	s := &liveServer{
		front: front, timer: timer, srv: httptest.NewServer(timer), bodies: bodies,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}},
	}
	warm, _ := s.closedLoop(0, httpWarmup)
	if warm.failed > 0 {
		s.close()
		return nil, warm, fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	return s, warm, nil
}

// outcome counts the requests of a worker, window or run. Rejected
// requests are attempted but neither served nor failed.
type outcome struct {
	attempted, failed, rejected int64
	firstErr                    error
}

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.rejected += p.rejected
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
}

// tally is what one worker or open-loop window observed.
type tally struct {
	outcome
	latency          []float64 // ms, wall clock
	ttft             []float64 // ms, virtual
	sloMet, sloTotal int
}

func (t *tally) merge(o *tally) {
	t.add(o.outcome)
	t.latency = append(t.latency, o.latency...)
	t.ttft = append(t.ttft, o.ttft...)
	t.sloMet += o.sloMet
	t.sloTotal += o.sloTotal
}

// post sends body i and checks the response.
func (s *liveServer) post(i int) (chatBody, chatResponse, error) {
	b := s.bodies[i%len(s.bodies)]
	resp, err := s.client.Post(s.srv.URL+"/v1/chat/completions", "application/json", bytes.NewReader(b.json))
	if err != nil {
		return b, chatResponse{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return b, chatResponse{}, err
	}
	r, err := b.check(resp.StatusCode, body)
	if err == nil {
		s.ok.Add(1)
	}
	return b, r, err
}

// count adds one request's outcome.
func (o *outcome) count(err error) {
	o.attempted++
	if errors.Is(err, errRejected) {
		o.rejected++
		return
	}
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

// record adds one open-loop request; its latency runs from due. A
// rejected request has no latency and misses its deadline.
func (t *tally) record(due time.Time, b chatBody, r chatResponse, err error) {
	t.count(err)
	if errors.Is(err, errRejected) {
		t.sloTotal++
	}
	if err != nil {
		return
	}
	t.latency = append(t.latency, ms(time.Since(due)))
	t.ttft = append(t.ttft, r.Valora.TTFT)
	t.sloTotal++
	if r.Valora.E2E <= b.deadline {
		t.sloMet++
	}
}

// closedLoop runs GOMAXPROCS clients that each send their next request
// when the previous one returns, for d or, with a zero d, until count
// requests are sent. It also returns how many requests succeeded
// before d ran out.
func (s *liveServer) closedLoop(d time.Duration, count int64) (outcome, int64) {
	n := runtime.GOMAXPROCS(0)
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]outcome, n)
	done := make([]int64, n)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if d > 0 && !time.Now().Before(deadline) {
					return
				}
				i := s.next.Add(1)
				if d == 0 && i > count {
					return
				}
				_, _, err := s.post(int(i))
				parts[w].count(err)
				if err == nil && time.Now().Before(deadline) {
					done[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	if d == 0 {
		s.next.Store(0)
	}
	var out outcome
	var total int64
	for w := range parts {
		out.add(parts[w])
		total += done[w]
	}
	return out, total
}

// scrape is one /metrics fetch.
type scrape struct {
	ms       float64
	bytes    int
	requests float64 // valora_requests_total
	series   map[string]float64
	err      error
}

func (s *liveServer) scrape() scrape {
	start := time.Now()
	resp, err := s.client.Get(s.srv.URL + "/metrics")
	if err != nil {
		return scrape{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := scrape{ms: ms(time.Since(start)), bytes: len(body), err: err}
	if err == nil && resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	if out.err == nil {
		out.series, out.err = parseExposition(body)
		out.requests = out.series["valora_requests_total"]
	}
	return out
}

// parseExposition sums each unlabelled-or-labelled sample by metric name.
func parseExposition(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed exposition value in %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// openWindow is one open-loop window's outcome.
type openWindow struct {
	tally
	late   []float64 // ms the schedule goroutine ran behind each due time
	scrape scrape    // the /metrics fetch sent as the window starts
}

// openLoop offers httpRate requests per second for d over GOMAXPROCS
// client connections, after one /metrics scrape; with one open window
// a second, that is a Prometheus server scraping once a second. Each
// request is timed from when it was due, so a stall also charges the
// requests queued behind it.
func (s *liveServer) openLoop(d time.Duration) *openWindow {
	type job struct {
		i      int
		due    time.Time
		scrape bool
	}
	total := int(d.Seconds() * httpRate)
	interval := time.Second / httpRate
	// Sized to every send of the window, so the schedule never blocks on
	// slow workers and the loop stays open.
	jobs := make(chan job, total+1)
	start := time.Now()
	var late []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		jobs <- job{scrape: true}
		for k := 0; k < total; k++ {
			due := start.Add(time.Duration(k) * interval)
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			late = append(late, ms(time.Since(due)))
			jobs <- job{i: int(s.next.Add(1)), due: due}
		}
	}()
	n := runtime.GOMAXPROCS(0)
	parts := make([]tally, n)
	scrapes := make([]*scrape, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				if j.scrape {
					sc := s.scrape()
					scrapes[w] = &sc
					continue
				}
				b, r, err := s.post(j.i)
				parts[w].record(j.due, b, r, err)
			}
		}(w)
	}
	wg.Wait()
	out := &openWindow{late: late}
	for w := range parts {
		out.merge(&parts[w])
		if scrapes[w] != nil {
			out.scrape = *scrapes[w]
		}
	}
	return out
}

// runHTTP drives the http-chat workload: set-ups, then open-loop and
// closed-loop windows in turn until 90% of the budget is spent.
// Untraced it measures the end-to-end metrics. Traced it measures the
// per-layer ones: the open-loop windows and every second closed-loop
// window run with the handler timer and the frontend trace recorder
// on, and the other closed-loop windows run under the CPU profiler
// only, as the overhead baseline.
func runHTTP(seed int64, budget time.Duration, traced bool) (*runOutcome, error) {
	end := time.Now().Add(budget * 9 / 10)
	out := &runOutcome{metrics: metricSet{}}
	bodies := genBodies(seed)
	var setups []float64
	var live *liveServer
	var all outcome
	for i := 0; i < httpSetupRepeats; i++ {
		if live != nil {
			live.close()
		}
		runtime.GC() // as in prepare: each set-up starts from the same collector state
		start := time.Now()
		s, warm, err := startLive(bodies)
		setups = append(setups, time.Since(start).Seconds())
		all.add(warm)
		if err != nil {
			out.attempted, out.failed = all.attempted, all.failed
			return out, err
		}
		live = s
	}
	defer live.close()
	recorder := trace.NewRecorder()
	setTraced := func(on bool) {
		if !traced {
			return
		}
		live.timer.on.Store(on)
		if on {
			live.front.SetTraceRecorder(recorder)
		} else {
			live.front.SetTraceRecorder(nil)
		}
	}

	var (
		open                tally
		late, p50s, p90s    []float64
		scrapes             []scrape
		plainRPS, tracedRPS []float64
		plainAttempted      int64
		mem                 memDelta
		cpu                 = cpuShares{}
	)
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		setTraced(traced)
		w := live.openLoop(window)
		all.add(w.outcome)
		open.merge(&w.tally)
		late = append(late, w.late...)
		scrapes = append(scrapes, w.scrape)
		if len(w.latency) > 0 {
			p50s = append(p50s, quantile(w.latency, 0.5))
			p90s = append(p90s, quantile(w.latency, 0.9))
		}

		plain := !traced || i%2 == 0
		setTraced(!plain)
		var c outcome
		var done int64
		closed := func() error {
			c, done = live.closedLoop(window, 0)
			return nil
		}
		if traced && plain {
			before := readMem()
			if err := cpu.profile(closed); err != nil {
				return out, err
			}
			mem.add(readMem().since(before))
		} else {
			_ = closed()
		}
		all.add(c)
		rate := float64(done) / window.Seconds()
		if plain {
			plainRPS = append(plainRPS, rate)
			plainAttempted += c.attempted
		} else {
			tracedRPS = append(tracedRPS, rate)
		}
	}
	setTraced(false)

	// Quiescent now: the counters must equal the responses.
	final := live.scrape()
	var checkErr error
	switch {
	case final.err != nil:
		checkErr = fmt.Errorf("final scrape: %w", final.err)
	case int64(final.requests) != live.ok.Load():
		checkErr = fmt.Errorf("valora_requests_total is %v, but %d chat responses succeeded", final.requests, live.ok.Load())
	case int64(final.series["valora_requests_rejected_total"]) != all.rejected:
		checkErr = fmt.Errorf("valora_requests_rejected_total is %v, but %d chat requests were rejected",
			final.series["valora_requests_rejected_total"], all.rejected)
	case all.failed > 0:
		checkErr = fmt.Errorf("%d of %d requests failed: %v", all.failed, all.attempted, all.firstErr)
	}
	for _, sc := range scrapes {
		all.attempted++
		if sc.err != nil {
			all.failed++
			checkErr = fmt.Errorf("scrape: %w", sc.err)
		}
	}
	out.attempted, out.failed = all.attempted, all.failed
	if checkErr == nil && len(p50s) == 0 {
		checkErr = fmt.Errorf("no open-loop request was served")
	}
	if checkErr != nil {
		return out, checkErr
	}

	// Windows differ in wall time mostly by the load other tenants put
	// on the shared machine, which only ever slows a window down, so the
	// wall-clock figures come from the run's best window, as the replay
	// workloads' come from their fastest replay.
	m := out.metrics
	if !traced {
		m.set("setup_s", median(setups), len(setups))
		m.set("served_rps", slices.Max(plainRPS), len(plainRPS))
		m.set("wall_p50_ms", slices.Min(p50s), len(p50s))
		m.set("wall_p90_ms", slices.Min(p90s), len(p90s))
		m.set("peak_rss_mb", peakRSSMB(), 1)
		m.set("ok_frac", 1-ratio(float64(all.failed), float64(all.attempted)), int(all.attempted))
		chats := all.attempted - int64(len(scrapes))
		m.set("served_frac", 1-ratio(float64(all.rejected), float64(chats)), int(chats))
		m.set("virtual_ttft_p50_ms", median(open.ttft), len(open.ttft))
		m.set("virtual_ttft_p99_ms", quantile(open.ttft, 0.99), len(open.ttft))
		m.set("slo_attainment", ratio(float64(open.sloMet), float64(open.sloTotal)), open.sloTotal)
		return out, nil
	}

	h := live.timer.samples()
	m.set("serving.handler_p50_ms", median(h), len(h))
	m.set("serving.handler_p90_ms", quantile(h, 0.9), len(h))
	m.set("serving.gen_late_p99_ms", quantile(late, 0.99), len(late))
	m.set("serving.client_p99_ms", quantile(open.latency, 0.99), len(open.latency))
	var scrapeMS, scrapeBytes []float64
	for _, sc := range scrapes {
		scrapeMS = append(scrapeMS, sc.ms)
		scrapeBytes = append(scrapeBytes, float64(sc.bytes))
	}
	m.set("serving.scrape_ms", median(scrapeMS), len(scrapeMS))
	m.set("serving.scrape_bytes", median(scrapeBytes), len(scrapeBytes))
	rows := recorder.Rows()
	waits := make([]float64, len(rows))
	for i, row := range rows {
		waits[i] = ms(row.QueueWait())
	}
	m.set("serving.queue_wait_p99_ms", quantile(waits, 0.99), len(waits))
	m.set("serving.preemptions", final.series["valora_preemptions_total"], 1)
	m.set("lora.swap_ins", final.series["valora_adapter_swap_ins_total"], 1)
	m.set("lora.swap_gb", final.series["valora_adapter_swap_bytes_total"]/(1<<30), 1)
	m.set("lora.swap_stall_ms", final.series["valora_adapter_swap_stall_ms_total"], 1)
	m.set("lmm.rejected", final.series["valora_requests_rejected_total"], 1)
	served := float64(plainAttempted)
	m.set("runtime.alloc_b_per_req", ratio(float64(mem.allocBytes), served), int(served))
	m.set("runtime.gc_cycles", 1000*ratio(float64(mem.gcCycles), served), int(served))
	m.set("runtime.gc_pause_ms", 1000*ratio(ms(mem.gcPause), served), int(served))
	setCPU(m, cpu)
	m.set("trace.overhead_frac", 1-ratio(slices.Max(tracedRPS), slices.Max(plainRPS)), len(tracedRPS))
	return out, nil
}
