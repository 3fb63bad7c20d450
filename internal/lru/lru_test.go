package lru

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// op is one step of a table case: the operation, its key, the value a
// put stores, and what a get/take must return ("" = miss).
type op struct {
	do   string // "put", "get", "take" or "sleep" (advance the clock by val seconds)
	key  string
	val  int
	want string
}

func put(key string, val int) op { return op{do: "put", key: key, val: val} }
func get(key, want string) op    { return op{do: "get", key: key, want: want} }
func take(key, want string) op   { return op{do: "take", key: key, want: want} }
func sleep(seconds int) op       { return op{do: "sleep", val: seconds} }

func manyPuts(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = put(fmt.Sprintf("k%d", i), i)
	}
	return ops
}

func TestCache(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		ttl      time.Duration
		ops      []op
		want     Stats
	}{
		{
			// a is refreshed by the get, so inserting c evicts b.
			name: "lru eviction", capacity: 2,
			ops: []op{put("a", 1), put("b", 2), get("a", "1"), put("c", 3),
				get("b", ""), get("a", "1"), get("c", "3")},
			want: Stats{Hits: 3, Misses: 1, Evictions: 1, Entries: 2, Capacity: 2},
		},
		{
			name: "replace is an update, not an eviction", capacity: 4,
			ops:  []op{put("k", 1), put("k", 2), get("k", "2")},
			want: Stats{Hits: 1, Entries: 1, Capacity: 4},
		},
		{
			name: "replace at capacity evicts nothing", capacity: 2,
			ops:  []op{put("a", 1), put("b", 2), put("a", 3), get("a", "3"), get("b", "2")},
			want: Stats{Hits: 2, Entries: 2, Capacity: 2},
		},
		{
			name: "zero capacity stores nothing", capacity: 0,
			ops:  []op{put("k", 1), get("k", ""), take("k", "")},
			want: Stats{Misses: 2},
		},
		{
			name: "keys differing only in a mode prefix are distinct", capacity: 4,
			ops:  []op{put("solve:fp", 1), put("min-cost:fp", 2), get("solve:fp", "1"), get("min-cost:fp", "2")},
			want: Stats{Hits: 2, Entries: 2, Capacity: 4},
		},
		{
			name: "many inserts stay bounded", capacity: 8,
			ops:  manyPuts(100),
			want: Stats{Evictions: 92, Entries: 8, Capacity: 8},
		},
		{
			// A taken entry is gone until it is put back, and comes back
			// as the most recent: the next insert evicts b, not a.
			name: "take is exclusive", capacity: 2,
			ops: []op{put("a", 1), put("b", 2), take("a", "1"), take("a", ""), get("a", ""),
				put("a", 1), put("c", 3), get("b", ""), take("a", "1")},
			want: Stats{Hits: 2, Misses: 3, Evictions: 1, Entries: 1, Capacity: 2},
		},
		{
			// b is put 6s after a; at 11s only a is past the 10s TTL. The
			// get at 11s refreshes b, so at 20s b is 9s idle and lives.
			name: "idle entries expire", capacity: 4, ttl: 10 * time.Second,
			ops: []op{put("a", 1), sleep(6), put("b", 2), sleep(5), get("a", ""), get("b", "2"),
				sleep(9), get("b", "2"), sleep(11), take("b", "")},
			want: Stats{Hits: 2, Misses: 2, Expired: 2, Capacity: 4},
		},
		{
			name: "no ttl, nothing expires", capacity: 4,
			ops:  []op{put("a", 1), sleep(1 << 20), get("a", "1")},
			want: Stats{Hits: 1, Entries: 1, Capacity: 4},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int](tc.capacity, tc.ttl)
			clock := time.Unix(0, 0)
			c.now = func() time.Time { return clock }
			for i, o := range tc.ops {
				var v int
				var ok bool
				switch o.do {
				case "put":
					c.Put(o.key, o.val)
					continue
				case "sleep":
					clock = clock.Add(time.Duration(o.val) * time.Second)
					continue
				case "get":
					v, ok = c.Get(o.key)
				case "take":
					v, ok = c.Take(o.key)
				}
				got := ""
				if ok {
					got = fmt.Sprint(v)
				}
				if got != o.want {
					t.Errorf("op %d %s(%s) = %q, want %q", i, o.do, o.key, got, o.want)
				}
			}
			if st := c.Stats(); st != tc.want {
				t.Errorf("stats = %+v, want %+v", st, tc.want)
			}
		})
	}
}

func TestEachSnapshotsAndMayReenter(t *testing.T) {
	c := New[int](4, 0)
	c.Put("a", 1)
	c.Put("b", 2)
	var keys []string
	c.Each(func(key string, v int) {
		keys = append(keys, key)
		c.Put(key+"'", v) // would deadlock if fn ran under the lock
	})
	if fmt.Sprint(keys) != "[b a]" {
		t.Errorf("Each order = %v, want most recent first [b a]", keys)
	}
	if st := c.Stats(); st.Entries != 4 {
		t.Errorf("entries = %d, want 4", st.Entries)
	}
}

func keepAll(int) bool { return true }

// waitForHits blocks until the cache has counted n hits: the only way
// to know, from outside, that n callers have joined a flight.
func waitForHits(t *testing.T, c *Cache[int], n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Hits < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers joined the flight", c.Stats().Hits, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDoRunsComputeOnce(t *testing.T) {
	for _, tc := range []struct {
		name        string
		keep        func(int) bool
		wantEntries int
	}{
		{"kept value is stored", keepAll, 1},
		// A value keep rejects still reaches the callers already waiting,
		// but the next Do computes again.
		{"rejected value is shared, not stored", func(int) bool { return false }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 8
			c := New[int](4, 0)
			release := make(chan struct{})
			var computes int
			compute := func() (int, error) {
				computes++ // no lock: two computes at once would also be a -race report
				<-release
				return 42, nil
			}
			var wg sync.WaitGroup
			hits := make(chan bool, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, hit, err := c.Do(context.Background(), "k", compute, tc.keep)
					if v != 42 || err != nil {
						t.Errorf("Do = %d, %v; want 42, nil", v, err)
					}
					hits <- hit
				}()
			}
			waitForHits(t, c, n-1)
			close(release)
			wg.Wait()
			close(hits)
			leaders := 0
			for hit := range hits {
				if !hit {
					leaders++
				}
			}
			want := Stats{Hits: n - 1, Misses: 1, Entries: tc.wantEntries, Capacity: 4}
			if st := c.Stats(); computes != 1 || leaders != 1 || st != want {
				t.Errorf("computes=%d leaders=%d stats=%+v; want 1, 1, %+v", computes, leaders, st, want)
			}
			if _, hit, _ := c.Do(context.Background(), "k", func() (int, error) { return 42, nil }, tc.keep); hit != (tc.wantEntries == 1) {
				t.Errorf("next Do hit = %v, want %v", hit, tc.wantEntries == 1)
			}
		})
	}
}

func TestDoErrorIsSharedNotStored(t *testing.T) {
	c := New[int](4, 0)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func() (int, error) { return 7, boom }, keepAll); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.Do(context.Background(), "k", func() (int, error) { return 8, nil }, keepAll)
	if v != 8 || hit || err != nil {
		t.Errorf("Do after a failed compute = %d, %v, %v; want a fresh 8", v, hit, err)
	}
}

// TestDoPanicReleasesFlight: a leader whose compute panics sees the
// panic, its waiter gets ErrPanicked rather than a nil value, and the
// key is free again — the next Do computes and returns.
func TestDoPanicReleasesFlight(t *testing.T) {
	c := New[int](4, 0)
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		c.Do(context.Background(), "k", func() (int, error) {
			<-release
			panic("poisoned solver")
		}, keepAll)
	}()
	for c.Stats().Misses == 0 { // the leader holds the flight
		time.Sleep(time.Millisecond)
	}
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (int, error) { return 0, errors.New("waiter computed") }, keepAll)
		waiterErr <- err
	}()
	waitForHits(t, c, 1)
	close(release)

	if p := <-leaderPanic; p != "poisoned solver" {
		t.Errorf("leader recovered %v, want its own panic", p)
	}
	select {
	case err := <-waiterErr:
		if !errors.Is(err, ErrPanicked) {
			t.Errorf("waiter err = %v, want ErrPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked after the leader panicked")
	}

	done := make(chan int, 1)
	go func() {
		v, _, _ := c.Do(context.Background(), "k", func() (int, error) { return 9, nil }, keepAll)
		done <- v
	}()
	select {
	case v := <-done:
		if v != 9 {
			t.Errorf("Do after a panicked flight = %d, want a fresh 9", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do after a panicked flight hangs: the flight was never released")
	}
}

// TestDoWaiterHonoursContext: a waiter whose context is already over
// returns its ctx error while the leader is still computing.
func TestDoWaiterHonoursContext(t *testing.T) {
	c := New[int](4, 0)
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(context.Background(), "k", func() (int, error) { <-release; return 1, nil }, keepAll)
	}()
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() (int, error) { return 2, nil }, keepAll)
		waiterErr <- err
	}()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("cancelled waiter is out-waiting the leader")
	}
	close(release)
	<-leaderDone
	if v, ok := c.Get("k"); !ok || v != 1 {
		t.Errorf("leader's value = %d, %v; want 1 stored", v, ok)
	}
}

// TestDoWaiterOutlivesCancelledLeader: compute closes over the leader's
// context, so a flight ending in the leader's cancellation says nothing
// about the work. Waiters whose own contexts are live go round again:
// one of them leads a second compute and the others share its value —
// the compute runs exactly twice and nobody inherits context.Canceled. A
// deadline wrapped in the compute's own error counts the same.
func TestDoWaiterOutlivesCancelledLeader(t *testing.T) {
	for _, cause := range []error{context.Canceled, fmt.Errorf("region r3: %w", context.DeadlineExceeded)} {
		const waiters = 3
		c := New[int](4, 0)
		leaderCtx, cancelLeader := context.WithCancel(context.Background())
		var computes int // no lock: two computes at once would be a -race report
		compute := func(ctx context.Context) func() (int, error) {
			return func() (int, error) {
				computes++
				if ctx == leaderCtx {
					<-ctx.Done()
					return 0, cause
				}
				return 42, nil
			}
		}
		leaderErr := make(chan error, 1)
		go func() {
			_, _, err := c.Do(leaderCtx, "k", compute(leaderCtx), keepAll)
			leaderErr <- err
		}()
		for c.Stats().Misses == 0 { // the leader holds the flight
			time.Sleep(time.Millisecond)
		}
		type answer struct {
			v   int
			hit bool
			err error
		}
		answers := make(chan answer, waiters)
		for i := 0; i < waiters; i++ {
			go func() {
				ctx := context.Background()
				v, hit, err := c.Do(ctx, "k", compute(ctx), keepAll)
				answers <- answer{v, hit, err}
			}()
		}
		waitForHits(t, c, waiters)
		cancelLeader()
		if err := <-leaderErr; !errors.Is(err, cause) {
			t.Errorf("leader err = %v, want its own %v", err, cause)
		}
		led := 0
		for i := 0; i < waiters; i++ {
			select {
			case a := <-answers:
				if a.v != 42 || a.err != nil {
					t.Errorf("waiter got %d, %v; want 42 from a second compute", a.v, a.err)
				}
				if !a.hit {
					led++
				}
			case <-time.After(10 * time.Second):
				t.Fatal("waiter still blocked after its leader was cancelled")
			}
		}
		want := Stats{Hits: waiters - 1, Misses: 2, Entries: 1, Capacity: 4}
		if st := c.Stats(); computes != 2 || led != 1 || st != want {
			t.Errorf("%v: computes=%d second leaders=%d stats=%+v; want 2, 1, %+v", cause, computes, led, st, want)
		}
	}
}
