package cluster

// Cluster client lifecycle: membership validation in New, and the
// background prober loop, which the fault suite bypasses via
// ProbeOnce.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackgroundProber: with ProbeInterval set the prober demotes a
// dead member and re-heals on recovery without anyone calling
// ProbeOnce.
func TestBackgroundProber(t *testing.T) {
	var down [2]atomic.Bool
	var specs []NodeSpec
	for i := 0; i < 2; i++ {
		i := i
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down[i].Load() {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			w.WriteHeader(http.StatusOK)
		}))
		defer hs.Close()
		specs = append(specs, NodeSpec{ID: fmt.Sprintf("node%d", i), URL: hs.URL})
	}
	clu, err := New(Config{
		Self: "node0", Nodes: specs,
		ProbeInterval: 10 * time.Millisecond, FailThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()

	if clu.Self() != "node0" || clu.Ring().Size() != 2 {
		t.Fatalf("initial ring wrong: self=%q size=%d", clu.Self(), clu.Ring().Size())
	}
	down[1].Store(true)
	waitFor(t, func() bool { return len(clu.Alive()) == 1 })
	down[1].Store(false)
	waitFor(t, func() bool { return len(clu.Alive()) == 2 })
}

// TestNewValidation: the membership validation catches every
// misconfiguration before a cluster exists.
func TestNewValidation(t *testing.T) {
	two := []NodeSpec{{ID: "a", URL: "http://x"}, {ID: "b", URL: "http://y"}}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty self", Config{Nodes: two}},
		{"one node", Config{Self: "a", Nodes: two[:1]}},
		{"empty node ID", Config{Self: "a", Nodes: []NodeSpec{{ID: "a", URL: "http://x"}, {URL: "http://y"}}}},
		{"duplicate ID", Config{Self: "a", Nodes: []NodeSpec{{ID: "a", URL: "http://x"}, {ID: "a", URL: "http://y"}}}},
		{"bad URL", Config{Self: "a", Nodes: []NodeSpec{{ID: "a", URL: "http://x"}, {ID: "b", URL: "not a url"}}}},
		{"self not a member", Config{Self: "z", Nodes: two}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.ProbeInterval = -1
			if c, err := New(tc.cfg); err == nil {
				c.Close()
				t.Fatal("misconfiguration accepted")
			}
		})
	}
	c, err := New(Config{Self: "a", Nodes: two, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}
