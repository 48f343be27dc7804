package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermalscaffold/internal/serve"
	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/specio"
	"thermalscaffold/internal/telemetry"
)

// node is an in-process thermserve node on a loopback listener,
// assembled as cmd/thermserve assembles it.
type node struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startNode(cfg serve.Config) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nd := &node{srv: serve.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	nd.hs = &http.Server{Handler: nd.srv}
	go func() {
		defer close(nd.done)
		nd.hs.Serve(ln)
	}()
	return nd, nil
}

// stop drains the service, then closes the listener and its
// connections, and waits for the server to return.
func (nd *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	nd.srv.Shutdown(ctx)
	nd.hs.Close()
	<-nd.done
}

// job is one request. id names its content: every job with the same id
// sends the same body and must get the same answer. Exactly one of eval
// and trace is set; body is it marshalled.
type job struct {
	idx   int
	id    string
	path  string
	body  []byte
	eval  *specio.EvalRequest
	trace *specio.TraceRequest
}

// answer is the service's response to a job: the content address
// (empty for traces, which have none) and the peak temperatures it
// reported — one for an evaluation, one per checkpoint then the run's
// peak for a trace.
type answer struct {
	job   *job
	key   string
	peaks []float64
}

// service drives closed-loop traffic at a node in rounds, the
// unit the repository benchmark it replays times. Request i is gen(i).
// A round is round consecutive requests, sent by clients goroutines
// that each take the next request of the round when their previous
// answer arrives; the next round starts when the last answer of the
// previous one has arrived. Set-up sends requests 0..warm-1 the same
// way and timing continues from warm.
type service struct {
	cfg     serve.Config
	clients int
	round   int
	warm    int
	gen     func(i int) *job

	nd     *node
	tr     *http.Transport
	client *http.Client

	mu     sync.Mutex
	first  map[string]answer // id → first answer
	firsts []answer          // first answers, in arrival order
}

func (s *service) setup(tel *telemetry.Collector) error {
	cfg := s.cfg
	cfg.Telemetry = tel
	nd, err := startNode(cfg)
	if err != nil {
		return err
	}
	s.nd = nd
	s.tr = &http.Transport{MaxIdleConnsPerHost: 64}
	s.client = &http.Client{Transport: s.tr, Timeout: time.Minute}
	s.first = map[string]answer{}
	for i := 0; i < s.warm; i += s.round {
		if o := s.send(i, min(i+s.round, s.warm)); o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return nil
}

func (s *service) measure(deadline time.Time) []op {
	var ops []op
	for i := s.warm; time.Now().Before(deadline); i += s.round {
		ops = append(ops, s.send(i, i+s.round))
	}
	return ops
}

// send sends requests from..to-1 as one round and times it.
func (s *service) send(from, to int) op {
	var (
		next   atomic.Int64
		failed atomic.Int64
		first  error
		once   sync.Once
		wg     sync.WaitGroup
	)
	next.Store(int64(from))
	t0 := time.Now()
	for c := 0; c < min(s.clients, to-from); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < to; i = int(next.Add(1) - 1) {
				j := s.gen(i)
				a, err := s.post(j)
				if err == nil {
					err = s.record(a)
				}
				if err != nil {
					failed.Add(1)
					once.Do(func() { first = fmt.Errorf("request %d (%s): %w", j.idx, j.id, err) })
				}
			}
		}()
	}
	wg.Wait()
	return op{latency: time.Since(t0), n: to - from, failed: int(failed.Load()), err: first}
}

// post sends one request and decodes its answer.
func (s *service) post(j *job) (answer, error) {
	path := j.path
	res, err := s.client.Post(s.nd.url+path, "application/json", bytes.NewReader(j.body))
	if err != nil {
		return answer{}, err
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return answer{}, err
	}
	if res.StatusCode != http.StatusOK {
		return answer{}, fmt.Errorf("%s: HTTP %d: %s", path, res.StatusCode, bytes.TrimSpace(raw))
	}
	if j.trace != nil {
		peaks, err := traceStream(raw, len(j.trace.Segments))
		return answer{job: j, peaks: peaks}, err
	}
	var er specio.EvalResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		return answer{}, fmt.Errorf("%s: decoding response: %w", path, err)
	}
	if er.Error != "" || er.Key == "" {
		return answer{}, fmt.Errorf("malformed answer %+v", er)
	}
	return answer{job: j, key: er.Key, peaks: []float64{float64(er.PeakT)}}, nil
}

// traceStream parses an SSE trace stream: one checkpoint frame per
// segment, in order, then one done frame. It returns the checkpoint
// peaks followed by the run's peak.
func traceStream(raw []byte, segments int) ([]float64, error) {
	var (
		peaks []float64
		event string
		done  bool
	)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, len(raw)+1)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev specio.TraceEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return nil, fmt.Errorf("trace frame: %w", err)
			}
			switch {
			case done:
				return nil, fmt.Errorf("trace frame %q after done", event)
			case event == specio.TraceEventCheckpoint && ev.Segment == len(peaks)+1 && ev.Segments == segments:
			case event == specio.TraceEventDone && ev.Segment == segments && len(peaks) == segments:
				done = true
			default:
				return nil, fmt.Errorf("unexpected trace frame %q: %+v", event, ev)
			}
			peaks = append(peaks, float64(ev.PeakT))
		}
	}
	if !done {
		return nil, fmt.Errorf("trace stream ended without a done frame after %d frames", len(peaks))
	}
	return peaks, nil
}

// record checks an answer against the first answer to the same job id:
// the same content address and bitwise the same peaks. Replays are
// cache hits or coalesced solves (hot repeats a problem only within its
// round, long before the result cache evicts it); a trace replay is a
// deterministic re-solve.
func (s *service) record(a answer) error {
	for _, p := range a.peaks {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("peak %v", p)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.first[a.job.id]
	if !ok {
		s.first[a.job.id] = a
		s.firsts = append(s.firsts, a)
		return nil
	}
	if a.key != prev.key {
		return fmt.Errorf("content address %.12s, earlier %.12s", a.key, prev.key)
	}
	for k := range a.peaks {
		if math.Float64bits(a.peaks[k]) != math.Float64bits(prev.peaks[k]) {
			return fmt.Errorf("peak %d is %v K, earlier %v K", k, a.peaks[k], prev.peaks[k])
		}
	}
	return nil
}

// verify re-solves the earliest verifySolves first answers in request
// order, so a seed always verifies the same jobs, and recomputes the
// content address of about verifyKeys of them, evenly spaced (every
// one when there are fewer): the keys cost a problem build each, and
// coldfam, where every request is new, sends thousands.
const (
	verifySolves = 8
	verifyKeys   = 512
)

// verify checks the first answers to job ids, which record has compared
// every other answer with: content addresses against ones computed from
// the requests, and peaks against an independent serial solve.
func (s *service) verify() error {
	sort.Slice(s.firsts, func(a, b int) bool { return s.firsts[a].job.idx < s.firsts[b].job.idx })
	stride := max(1, len(s.firsts)/verifyKeys)
	for k, a := range s.firsts {
		var err error
		switch {
		case a.job.trace != nil && k < verifySolves:
			err = verifyTrace(a)
		case a.job.eval != nil && (k < verifySolves || k%stride == 0):
			err = verifyEval(a, k < verifySolves)
		}
		if err != nil {
			return fmt.Errorf("request %d (%s): %w", a.job.idx, a.job.id, err)
		}
	}
	return nil
}

// verifyEval recomputes an evaluation's content address from its
// request and, when solve is set, its peak from a cold serial solve.
// The peak must agree to 1e-4 of the temperature rise: a warm-started
// solve converges to the same tolerance from another start.
func verifyEval(a answer, solve bool) error {
	ev, err := specio.BuildEval(*a.job.eval)
	if err != nil {
		return err
	}
	key, err := serve.Key(ev)
	if err != nil {
		return err
	}
	if key != a.key {
		return fmt.Errorf("content address %.12s, want %.12s", a.key, key)
	}
	if !solve {
		return nil
	}
	res, err := solver.SolveSteady(ev.Problem, refOptions(ev))
	if err != nil {
		return err
	}
	ref, _ := ev.FieldStats(res.T)
	return near(a.peaks[0], ref, ref-ev.Spec.Sink.Ambient(), 1e-4)
}

// verifyTrace integrates the trace in process, serially and without an
// assembly cache, and compares every checkpoint peak and the run's peak
// to 1e-9 of the rise.
func verifyTrace(a answer) error {
	te, err := specio.BuildTrace(*a.job.trace)
	if err != nil {
		return err
	}
	var ref []float64
	res, err := solver.SolveTrace(te.Base.Problem, te.Base.InitialField(), te.Segments, refOptions(te.Base), solver.TraceOptions{
		OnCheckpoint: func(cp *solver.TraceCheckpoint) error {
			ref = append(ref, cp.PeakT)
			return nil
		},
	})
	if err != nil {
		return err
	}
	ref = append(ref, res.PeakT)
	amb := te.Base.Spec.Sink.Ambient()
	for k := range ref {
		if err := near(a.peaks[k], ref[k], res.PeakT-amb, 1e-9); err != nil {
			return fmt.Errorf("frame %d: %w", k, err)
		}
	}
	return nil
}

func refOptions(ev *specio.Eval) solver.Options {
	return solver.Options{Tol: ev.Tol, MaxIter: ev.MaxIter, Precond: ev.Precond, Precision: ev.Precision, Workers: 1}
}

func near(got, ref, rise, tol float64) error {
	if !(rise > 0) || !(math.Abs(got-ref) <= tol*rise) {
		return fmt.Errorf("peak %v K, reference %v K (rise %.4g K)", got, ref, rise)
	}
	return nil
}

// counters reads the node's /metrics counters.
func (s *service) counters() (map[string]int64, error) {
	res, err := s.client.Get(s.nd.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	var snap serve.MetricsSnapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return snap.Counters, nil
}

func (s *service) close() {
	if s.nd != nil {
		s.nd.stop()
	}
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
}
