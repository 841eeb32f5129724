package des

// Owned returns s's value of type T, a zero T made on first use. It is how
// the layers above a queue keep what belongs to the queue rather than to one
// run: the message layer's envelopes and outbox, the free lists behind
// network.PayloadList — wire payloads, estimation-round buffers, sampler
// picks — and the scenario runner's processor slots. Reset keeps every owned value, as it keeps the event arena, so a run
// on a reset simulator takes over what the previous run gave back; the values
// live until the simulator is dropped, and a fresh simulator owns nothing.
//
// Call it while wiring a run and keep the result: the lookup scans the
// simulator's few owned values by type. Like the queue itself, an owned value
// belongs to the goroutine running s.
func Owned[T any](s *Sim) *T {
	for _, v := range s.owned {
		if p, ok := v.(*T); ok {
			return p
		}
	}
	p := new(T)
	s.owned = append(s.owned, p)
	return p
}

// FreeList recycles items of one type: the message layer's envelopes and wire
// payloads, and — under the same rule — the round-sized buffers the protocol
// layer borrows for the length of an estimation round (a FreeList[[]T] lends
// *[]T). Whoever consumed an item puts it back once it has read it, and
// nobody keeps a pointer to an item it put back. A list holds at most the
// items ever out at once; an item nobody returns is merely left to the
// garbage collector, and an item the list did not hand out is as good as one
// it did. The lists a simulator owns (Owned) outlive its runs.
type FreeList[T any] struct{ free []*T }

// Get pops a recycled item or allocates one. The caller sets every field.
func (l *FreeList[T]) Get() *T {
	if last := len(l.free) - 1; last >= 0 {
		p := l.free[last]
		l.free = l.free[:last]
		return p
	}
	return new(T)
}

// Put recycles an item its consumer is done with.
func (l *FreeList[T]) Put(p *T) { l.free = append(l.free, p) }

// Len reports how many items the list holds for the next Get.
func (l *FreeList[T]) Len() int { return len(l.free) }
