package coordinator_test

// Scripted hook-order tests: a job's OnRows and OnDone calls must reach the
// hooks in acceptance order even when the completions that queued them
// race. The first completion's OnRows blocks on a channel while a second
// caller finishes the job; the second caller must return without running
// OnDone ahead of the blocked rows. No sleeps: every step is a channel
// handshake.

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"otisnet/internal/coordinator"
	"otisnet/internal/sweep"
)

// blockedHooks logs each hook call once its body has finished. OnRows for
// the rows starting at blockIdx signals entered and waits for release.
type blockedHooks struct {
	blockIdx int
	entered  chan struct{}
	release  chan struct{}

	mu  sync.Mutex
	log []string
}

func newBlockedHooks(blockIdx int) *blockedHooks {
	return &blockedHooks{blockIdx: blockIdx, entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockedHooks) hooks() coordinator.Hooks {
	return coordinator.Hooks{
		OnRows: func(rows []sweep.ShardResult) {
			if rows[0].Index == b.blockIdx {
				close(b.entered)
				<-b.release
			}
			b.record(fmt.Sprintf("rows %d", rows[0].Index))
		},
		OnDone: func(_ []sweep.Result, err error) {
			switch {
			case err == nil:
				b.record("done")
			case errors.Is(err, coordinator.ErrCanceled):
				b.record("canceled")
			default:
				b.record("failed: " + err.Error())
			}
		},
	}
}

func (b *blockedHooks) record(s string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.log = append(b.log, s)
}

func (b *blockedHooks) snapshot() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.log...)
}

// startBlockedCompletion submits a two-shard job, leases both shards and
// completes the first on another goroutine, returning once that
// completion's OnRows is blocked. The returned channel closes when that
// Complete call returns.
func startBlockedCompletion(t *testing.T) (*coordinator.Coordinator, *blockedHooks, [2]coordinator.Grant, [2][]sweep.ShardResult, chan struct{}) {
	t.Helper()
	points := testPoints(t)
	c := coordinator.New(coordinator.Config{LeaseTTL: 10 * time.Second, StealAfter: 5 * time.Second, Clock: newFakeClock()})
	var grants [2]coordinator.Grant
	var rows [2][]sweep.ShardResult
	for i := range rows {
		rows[i] = rowsFor(t, points, i, 2)
	}
	b := newBlockedHooks(rows[0][0].Index)
	if _, err := c.Submit("job-1", points, []byte(`{}`), 2, 0, b.hooks()); err != nil {
		t.Fatal(err)
	}
	for i := range grants {
		g, ok, _ := c.Acquire(bg, fmt.Sprintf("w%d", i))
		if !ok || g.Shard != i {
			t.Fatalf("acquire %d: %+v %v", i, g, ok)
		}
		grants[i] = g
	}
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		g := grants[0]
		if st, err := c.Complete(bg, "w0", g, rows[0]); st != coordinator.StatusAccepted {
			t.Errorf("completion 1: %s %v", st, err)
		}
	}()
	<-b.entered
	return c, b, grants, rows, returned
}

func TestHookOrderCompleteWhileRowsBlocked(t *testing.T) {
	c, b, grants, rows, returned := startBlockedCompletion(t)
	g := grants[1]
	if st, err := c.Complete(bg, "w1", g, rows[1]); st != coordinator.StatusAccepted {
		t.Errorf("completion 2: %s %v", st, err)
	}
	if log := b.snapshot(); len(log) != 0 {
		t.Errorf("hooks ran ahead of the blocked OnRows: %v", log)
	}
	close(b.release)
	<-returned
	want := []string{fmt.Sprintf("rows %d", rows[0][0].Index), fmt.Sprintf("rows %d", rows[1][0].Index), "done"}
	if log := b.snapshot(); !reflect.DeepEqual(log, want) {
		t.Fatalf("hook order %v, want %v", log, want)
	}
}

func TestHookOrderCancelWhileRowsBlocked(t *testing.T) {
	c, b, _, rows, returned := startBlockedCompletion(t)
	c.Cancel("job-1")
	if log := b.snapshot(); len(log) != 0 {
		t.Errorf("hooks ran ahead of the blocked OnRows: %v", log)
	}
	close(b.release)
	<-returned
	want := []string{fmt.Sprintf("rows %d", rows[0][0].Index), "canceled"}
	if log := b.snapshot(); !reflect.DeepEqual(log, want) {
		t.Fatalf("hook order %v, want %v", log, want)
	}
}
