package transport

// Link is what a record embeds to sit on a List: its neighbours there.
type Link[R any] struct {
	prev, next *R
}

func (l *Link[R]) link() *Link[R] { return l }

// linked is the constraint of a listed record type: a pointer to a
// struct that embeds Link.
type linked[R any] interface {
	*R
	link() *Link[R]
}

// List is a receiving host's active flows — Homa's scheduler list,
// SIRD's credit-pool members, pHost's token candidates — in the order
// they were added, chained through the records' embedded Link: adding
// and removing a record allocate nothing and take O(1), whatever the
// list's length. A record is on at most one List at a time. Walk it
// with Front and Next; a walk must not remove the record it stands on.
// The zero value is empty.
type List[R any, P linked[R]] struct {
	head, tail *R
}

// Front returns the first record, or nil when the list is empty.
func (l *List[R, P]) Front() *R { return l.head }

// Next returns the record after r, or nil when r is the last.
func (l *List[R, P]) Next(r *R) *R { return P(r).link().next }

// PushBack adds r, which must be on no list, at the end.
func (l *List[R, P]) PushBack(r *R) {
	P(r).link().prev = l.tail
	if l.tail == nil {
		l.head = r
	} else {
		P(l.tail).link().next = r
	}
	l.tail = r
}

// Remove takes r, which must be on l, off it, keeping the others' order.
func (l *List[R, P]) Remove(r *R) {
	x := P(r).link()
	if x.prev == nil {
		l.head = x.next
	} else {
		P(x.prev).link().next = x.next
	}
	if x.next == nil {
		l.tail = x.prev
	} else {
		P(x.next).link().prev = x.prev
	}
	x.prev, x.next = nil, nil
}
