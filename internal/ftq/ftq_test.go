package ftq

import "testing"

// push allocates a slot and fills it, as the front-end's IAG does.
func push(q *Queue[int], v int) bool {
	s := q.Alloc()
	if s == nil {
		return false
	}
	*s = v
	return true
}

// pop reads the head slot and retires it, as decode does.
func pop(q *Queue[int]) (int, bool) {
	s := q.Front()
	if s == nil {
		return 0, false
	}
	v := *s
	q.Drop()
	return v, true
}

func TestAllocDropFIFO(t *testing.T) {
	q := New[int](4)
	for i := 1; i <= 4; i++ {
		if !push(q, i) {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if q.Alloc() != nil {
		t.Error("alloc from full queue succeeded")
	}
	if !q.Full() || q.Len() != 4 {
		t.Errorf("len=%d full=%v", q.Len(), q.Full())
	}
	for i := 1; i <= 4; i++ {
		v, ok := pop(q)
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
	if q.Drop() {
		t.Error("drop from empty succeeded")
	}
	if !q.Empty() {
		t.Error("queue not empty after draining")
	}
}

func TestFront(t *testing.T) {
	q := New[string](2)
	if q.Front() != nil {
		t.Error("front on empty")
	}
	*q.Alloc() = "a"
	*q.Alloc() = "b"
	if s := q.Front(); s == nil || *s != "a" {
		t.Errorf("front = %v", s)
	}
	if q.Len() != 2 {
		t.Error("front consumed")
	}
}

func TestWrapAround(t *testing.T) {
	q := New[int](3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !push(q, round*10+i) {
				t.Fatal("alloc failed")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := pop(q)
			if !ok || v != round*10+i {
				t.Fatalf("round %d: pop = %d,%v", round, v, ok)
			}
		}
	}
}

// TestSlotsStayInPlace checks the in-place contract: the slot Alloc
// hands out is the one Front later returns, and neither Drop nor Reset
// clears it, so storage a slot owns survives until the slot is reused.
func TestSlotsStayInPlace(t *testing.T) {
	q := New[int](2)
	a := q.Alloc()
	*a = 7
	if q.Front() != a {
		t.Fatal("front is not the allocated slot")
	}
	q.Drop()
	if *a != 7 {
		t.Error("drop cleared the slot")
	}
	b := q.Alloc()
	*b = 8
	q.Reset()
	if *b != 8 {
		t.Error("reset cleared the slot")
	}
	// Reset rewinds the ring, so the next allocation reuses the first
	// slot with its old contents still in it.
	if c := q.Alloc(); c != a || *c != 7 {
		t.Errorf("alloc after reset = %p (%d), want the first slot %p", c, *c, a)
	}
}

func TestReset(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 5; i++ {
		push(q, i)
	}
	q.Reset()
	if !q.Empty() || q.Len() != 0 || q.Front() != nil {
		t.Error("reset left slots live")
	}
	// Usable after reset.
	push(q, 99)
	if v, _ := pop(q); v != 99 {
		t.Error("queue broken after reset")
	}
}

func TestClone(t *testing.T) {
	q := New[int](3)
	push(q, 1)
	push(q, 2)
	push(q, 3)
	pop(q)
	push(q, 4) // wraps into the first slot
	n := q.Clone(func(v *int) int { return *v })
	if n.Len() != 3 || n.Cap() != 3 {
		t.Fatalf("clone len=%d cap=%d", n.Len(), n.Cap())
	}
	*q.Front() = 100
	for _, want := range []int{2, 3, 4} {
		if v, ok := pop(n); !ok || v != want {
			t.Fatalf("clone pop = %d,%v want %d", v, ok, want)
		}
	}
}

func TestMinCapacity(t *testing.T) {
	q := New[int](0)
	if q.Cap() != 1 {
		t.Errorf("cap = %d", q.Cap())
	}
	push(q, 1)
	if push(q, 2) {
		t.Error("capacity-1 queue accepted two")
	}
}
