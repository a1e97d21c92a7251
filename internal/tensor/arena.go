package tensor

import "fmt"

// Arena is a per-goroutine free list of tensors keyed by element count. The
// pipelined-backpropagation engines give every stage its own arena, so the
// steady-state training loop recycles activation, gradient and im2col buffers
// instead of allocating fresh ones per sample — without any locking, because
// an arena is only ever touched by the goroutine that owns the stage
// (DESIGN.md §7 documents the ownership rules).
//
// A nil *Arena is valid everywhere: Get falls back to New and Put is a
// no-op, which makes the unpooled path byte-for-byte identical to the
// pre-arena allocation behavior. Tests rely on this to prove pooling does
// not change the training trajectory.
//
// Only tensors handed out by an arena are ever recycled: Put silently drops
// foreign tensors (inputs a caller might still reference, views, dataset
// storage) and double-Puts, so a stray Put can never corrupt live data.
type Arena struct {
	// free holds one free list per dtype, keyed by element count, so a
	// pooled F32 tensor is never handed to an F64 caller or vice versa.
	free [F32 + 1]map[int][]*Tensor
	// gets and news count Get calls and the subset that had to allocate,
	// for tests and diagnostics.
	gets, news int
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: [F32 + 1]map[int][]*Tensor{make(map[int][]*Tensor), make(map[int][]*Tensor)}}
}

// Get is GetDT(F64, shape...).
func (a *Arena) Get(shape ...int) *Tensor { return a.GetDT(F64, shape...) }

// GetDT returns a tensor of the given dtype and shape: a recycled buffer
// when one of matching dtype and size is free, else a fresh allocation. The
// contents are unspecified — callers must fully overwrite or Zero the
// tensor. A nil arena always allocates (equivalent to NewDT, which
// zero-fills).
func (a *Arena) GetDT(dt DType, shape ...int) *Tensor {
	if a == nil {
		return NewDT(dt, shape...)
	}
	a.gets++
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: non-positive dimension in Arena.Get")
		}
		n *= d
	}
	free := a.free[dt]
	if list := free[n]; len(list) > 0 {
		t := list[len(list)-1]
		list[len(list)-1] = nil
		free[n] = list[:len(list)-1]
		t.setShape(shape)
		t.poolable = true
		return t
	}
	a.news++
	t := NewDT(dt, shape...)
	t.poolable = true
	return t
}

// GetZeroed is GetZeroedDT(F64, shape...).
func (a *Arena) GetZeroed(shape ...int) *Tensor { return a.GetZeroedDT(F64, shape...) }

// GetZeroedDT is GetDT followed by Zero — for buffers that are accumulated
// into.
func (a *Arena) GetZeroedDT(dt DType, shape ...int) *Tensor {
	t := a.GetDT(dt, shape...)
	if a != nil {
		t.Zero()
	}
	return t
}

// Put returns tensors to the arena for reuse. Nil tensors, tensors that did
// not come from an arena, and tensors already returned are ignored, so Put
// is safe to call on anything the caller has finished with.
func (a *Arena) Put(ts ...*Tensor) {
	if a == nil {
		return
	}
	for _, t := range ts {
		if t == nil || !t.poolable {
			continue
		}
		t.poolable = false
		free := a.free[t.dtype]
		free[t.Size()] = append(free[t.Size()], t)
	}
}

// Allocs reports how many Get calls allocated fresh storage (out of all Get
// calls). Steady-state training should see news stop growing.
func (a *Arena) Allocs() (news, gets int) {
	if a == nil {
		return 0, 0
	}
	return a.news, a.gets
}

// SetShape repoints t at a new shape with the same element count, in place
// (no view allocation), reusing the Shape slice when possible.
func (t *Tensor) SetShape(shape ...int) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panicBadShape(shape)
		}
		n *= d
	}
	if n != t.Size() {
		panicBadSetShape(shape, t.Size())
	}
	t.setShape(shape)
}

// panicBadSetShape formats a copy of the shape (see panicBadShape) so
// SetShape callers' variadic literals stay on the stack.
func panicBadSetShape(shape []int, elems int) {
	c := make([]int, len(shape))
	copy(c, shape)
	panic(fmt.Sprintf("tensor: cannot SetShape %v on data of %d elements", c, elems))
}

// setShape points t at a new shape of equal element count, reusing the
// existing Shape slice when possible so pooled Gets do not allocate.
func (t *Tensor) setShape(shape []int) {
	if cap(t.Shape) >= len(shape) {
		t.Shape = t.Shape[:len(shape)]
		copy(t.Shape, shape)
		return
	}
	s := make([]int, len(shape))
	copy(s, shape)
	t.Shape = s
}
