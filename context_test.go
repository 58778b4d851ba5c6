package libra

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/mem"
)

// countingCtx reports cancellation after its Err method has been read limit
// times — a deterministic stand-in for "the client went away between frames".
type countingCtx struct {
	context.Context
	mu    sync.Mutex
	reads int
	limit int
}

func (c *countingCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	if c.reads > c.limit {
		return context.Canceled
	}
	return nil
}

// TestRenderFramesContextAbortsAtFrameBoundary: cancellation between frames
// returns exactly the frames already rendered plus an error wrapping the
// context's cause — never a torn frame, never one more frame than the
// boundary check allows.
func TestRenderFramesContextAbortsAtFrameBoundary(t *testing.T) {
	run, err := NewRun(DefaultConfig(tw, th), "Jet")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countingCtx{Context: context.Background(), limit: 2}
	frames, rerr := run.RenderFramesContext(ctx, 8)
	if !errors.Is(rerr, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", rerr)
	}
	if len(frames) != 2 {
		t.Fatalf("rendered %d frames before abort, want exactly 2 (one per successful boundary check)", len(frames))
	}
}

// TestRenderFramesContextPreCancelled: an already-cancelled context renders
// nothing at all.
func TestRenderFramesContextPreCancelled(t *testing.T) {
	run, err := NewRun(DefaultConfig(tw, th), "Jet")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	frames, rerr := run.RenderFramesContext(ctx, 4)
	if !errors.Is(rerr, context.Canceled) || len(frames) != 0 {
		t.Fatalf("frames=%d err=%v, want 0 frames and context.Canceled", len(frames), rerr)
	}
}

// TestRenderFramesContextResumable: an aborted run is not poisoned — the
// same Run continues rendering afterwards, and the resumed sequence equals
// an uninterrupted run of the same benchmark (frames are the atomic unit, so
// cancellation never perturbs simulator state).
func TestRenderFramesContextResumable(t *testing.T) {
	cfg := DefaultConfig(tw, th)
	interrupted, err := NewRun(cfg, "Jet")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countingCtx{Context: context.Background(), limit: 2}
	head, _ := interrupted.RenderFramesContext(ctx, 8)
	tail, err := interrupted.RenderFramesContext(context.Background(), 8-len(head))
	if err != nil {
		t.Fatal(err)
	}
	got := append(head, tail...)

	straight, err := NewRun(cfg, "Jet")
	if err != nil {
		t.Fatal(err)
	}
	want := straight.RenderFrames(8)
	if len(got) != len(want) {
		t.Fatalf("resumed run rendered %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].FrameHash != want[i].FrameHash || got[i].TotalCycles != want[i].TotalCycles {
			t.Fatalf("frame %d diverges after mid-sequence abort: got hash=%#x cycles=%d, want hash=%#x cycles=%d",
				i, got[i].FrameHash, got[i].TotalCycles, want[i].FrameHash, want[i].TotalCycles)
		}
	}
}

// TestValidateScreenBound: hostile screen dimensions are rejected before any
// allocation happens (the service decodes configurations off the network).
func TestValidateScreenBound(t *testing.T) {
	cfg := DefaultConfig(MaxScreenDim+1, 64)
	if err := cfg.Validate(); err == nil {
		t.Error("oversized ScreenW passed Validate")
	}
	cfg = DefaultConfig(64, MaxScreenDim+1)
	if err := cfg.Validate(); err == nil {
		t.Error("oversized ScreenH passed Validate")
	}
	cfg = DefaultConfig(MaxScreenDim, 64)
	if err := cfg.Validate(); err != nil {
		t.Errorf("ScreenW at the bound rejected: %v", err)
	}
}

// TestScreenBoundKeepsFrameBufferBelowAddrLimit: the largest frame buffer
// Validate accepts, MaxScreenDim² pixels of 4 bytes from mem.FrameBase, ends
// below mem.AddrLimit, so raster.TileWork's 32-bit flush line addresses are
// exact.
func TestScreenBoundKeepsFrameBufferBelowAddrLimit(t *testing.T) {
	if end := mem.FrameBase + MaxScreenDim*MaxScreenDim*4; end > mem.AddrLimit {
		t.Errorf("a %d² frame buffer ends at %#x, past %#x", MaxScreenDim, end, mem.AddrLimit)
	}
}
