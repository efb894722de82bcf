package fifo

import "testing"

func TestQueueOrder(t *testing.T) {
	var q Queue[int]
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue")
	}
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	for i := 0; i < 3; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("pop %d = %d, %v", i, v, ok)
		}
	}
	q.Push(5)
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	for i := 3; i < 6; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("pop %d = %d, %v", i, v, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// A queue that never drains must still reuse its array: the live
// window slides down instead of the slice growing with every push.
func TestQueueBoundedWithoutDraining(t *testing.T) {
	var q Queue[int]
	q.Push(0)
	q.Push(1)
	next := 2
	for i := 0; i < 10000; i++ {
		v, _ := q.Pop()
		if v != i {
			t.Fatalf("pop = %d, want %d", v, i)
		}
		q.Push(next)
		next++
	}
	if cap(q.buf) > 4 {
		t.Fatalf("backing array grew to %d for a queue of length 2", cap(q.buf))
	}
}

func TestQueueSteadyStateAllocs(t *testing.T) {
	var q Queue[[]byte]
	b := []byte{1}
	q.Push(b)
	q.Pop()
	if n := testing.AllocsPerRun(100, func() {
		q.Push(b)
		q.Push(b)
		q.Pop()
		q.Pop()
	}); n != 0 {
		t.Fatalf("push/pop cycle allocates %v times", n)
	}
}
