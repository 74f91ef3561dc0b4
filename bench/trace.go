package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval recorded by bench code around a call into the
// program. Spans of one submission share a root; Lane is the client (or, on
// kernels, the single driver loop) whose wall time the span is charged to.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Lane   int    `json:"lane"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory; they are written out only at exit.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
	lanes map[int]time.Duration // wall time each lane was driving load
}

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), lanes: make(map[int]time.Duration)}
}

// add records a span and returns its ID (for children). A nil Tracer
// records nothing.
func (t *Tracer) add(name string, parent, lane int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Lane: lane,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// laneWall adds wall time a lane spent driving load.
func (t *Tracer) laneWall(lane int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lanes[lane] += d
	t.mu.Unlock()
}

// Breakdown is the traced run's time split: each span name's self time (its
// duration, clipped to its parent, minus the part its children cover), plus
// the lane wall time no root span covers. The parts add up to Wall.
type Breakdown struct {
	Wall         time.Duration
	Self         map[string]time.Duration
	Count        map[string]int
	Mean         map[string]time.Duration // mean unclipped duration per span name
	Unattributed time.Duration
}

func (t *Tracer) breakdown() Breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := Breakdown{Self: make(map[string]time.Duration), Count: make(map[string]int),
		Mean: make(map[string]time.Duration)}
	for _, w := range t.lanes {
		b.Wall += w
	}
	// IDs are dense and 1-based, and a child is always recorded after its
	// parent, so a parent's clipped interval is known when its children
	// are visited.
	clipped := make([][2]int64, len(t.spans)+1)
	covered := make([]int64, len(t.spans)+1)
	var roots int64
	total := make(map[string]int64)
	for _, s := range t.spans {
		lo, hi := s.Start, s.End
		if s.Parent != 0 {
			p := clipped[s.Parent]
			lo, hi = max(lo, p[0]), min(hi, p[1])
			if hi < lo {
				hi = lo
			}
			covered[s.Parent] += hi - lo
		} else {
			roots += hi - lo
		}
		clipped[s.ID] = [2]int64{lo, hi}
		b.Count[s.Name]++
		total[s.Name] += s.End - s.Start
	}
	for _, s := range t.spans {
		c := clipped[s.ID]
		b.Self[s.Name] += time.Duration(c[1] - c[0] - covered[s.ID])
	}
	for name, n := range b.Count {
		b.Mean[name] = time.Duration(total[name] / int64(n))
	}
	b.Unattributed = b.Wall - time.Duration(roots)
	return b
}

// String renders the breakdown as shares of traced wall time.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "traced wall %.3fs (summed over lanes)\n", b.Wall.Seconds())
	var sum time.Duration
	for _, n := range sortedKeys(b.Self) {
		sum += b.Self[n]
		fmt.Fprintf(&sb, "  %-22s self %9.3fs %6.2f%%  spans %d\n", n, b.Self[n].Seconds(),
			100*ratio(float64(b.Self[n]), float64(b.Wall)), b.Count[n])
	}
	sum += b.Unattributed
	fmt.Fprintf(&sb, "  %-22s      %9.3fs %6.2f%%\n", "unattributed", b.Unattributed.Seconds(),
		100*ratio(float64(b.Unattributed), float64(b.Wall)))
	fmt.Fprintf(&sb, "  %-22s      %9.3fs\n", "sum", sum.Seconds())
	return sb.String()
}

// write dumps the spans as one JSON object per line.
func (t *Tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(&s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}
