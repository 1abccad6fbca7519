package mem

import "math/bits"

// queue is one of the controller's request queues (reads or writes), indexed
// by bank: each bank keeps its requests oldest first, with a summary of them
// against the bank's current state. The scheduler reads the summaries and
// the bank masks instead of every queued request (DESIGN.md §16). Age across
// banks is the controller-wide enqueue sequence number (Request.seq).
type queue struct {
	banks []bankQueue
	n     int // requests queued over all banks

	// Bank masks, bit b for bank b. A closed bank with requests is in
	// nonEmpty only: an open bank's requests are each a hit or a conflict.
	nonEmpty  uint64 // banks with a queued request
	hits      uint64 // open banks with a request to the open row
	conflicts uint64 // open banks with a request to another row
}

// bankQueue is one bank's share of a queue, oldest first, and its summary
// against the bank's state: the index of the oldest request to the open row
// (hit) and of the oldest to another row (conflict), -1 when there is none
// and both -1 while the bank is closed, and the number of hits younger than
// that conflict, which are exactly the hits the row-hit cap withholds while
// the bank's streak is at the cap.
type bankQueue struct {
	reqs          []*Request
	hit, conflict int
	capped        int
}

func newQueue(banks int) queue {
	q := queue{banks: make([]bankQueue, banks)}
	for b := range q.banks {
		q.banks[b].hit, q.banks[b].conflict = -1, -1
	}
	return q
}

// push appends req, the youngest request, to its bank and folds it into the
// bank's summary, the bank being open on row or closed.
func (q *queue) push(req *Request, open bool, row int) {
	b := req.decoded.Bank
	bq, bit := &q.banks[b], uint64(1)<<uint(b)
	bq.reqs = append(bq.reqs, req)
	q.n++
	q.nonEmpty |= bit
	switch i := len(bq.reqs) - 1; {
	case !open:
	case req.decoded.Row == row:
		if bq.hit < 0 {
			bq.hit = i
			q.hits |= bit
		}
		if bq.conflict >= 0 {
			bq.capped++
		}
	case bq.conflict < 0:
		bq.conflict = i
		q.conflicts |= bit
	}
}

// remove deletes request i of bank b, keeping the bank's age order, and
// re-summarises the bank, which stays open on row (only a column access,
// which serves a hit, removes a request).
func (q *queue) remove(b, i, row int) {
	bq := &q.banks[b]
	bq.reqs = append(bq.reqs[:i], bq.reqs[i+1:]...)
	q.n--
	if len(bq.reqs) == 0 {
		q.nonEmpty &^= 1 << uint(b)
	}
	q.summarise(b, true, row)
}

// summarise rebuilds bank b's summary against its state, open on row or
// closed.
func (q *queue) summarise(b int, open bool, row int) {
	bq, bit := &q.banks[b], uint64(1)<<uint(b)
	bq.hit, bq.conflict, bq.capped = -1, -1, 0
	q.hits &^= bit
	q.conflicts &^= bit
	if !open {
		return
	}
	for i, r := range bq.reqs {
		switch {
		case r.decoded.Row == row:
			if bq.hit < 0 {
				bq.hit = i
			}
			if bq.conflict >= 0 {
				bq.capped++
			}
		case bq.conflict < 0:
			bq.conflict = i
		}
	}
	if bq.hit >= 0 {
		q.hits |= bit
	}
	if bq.conflict >= 0 {
		q.conflicts |= bit
	}
}

// oldest returns the bank holding the queue's oldest request, which is that
// bank's head; the queue must not be empty.
func (q *queue) oldest() int {
	bank, seq := -1, uint64(0)
	for m := q.nonEmpty; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if s := q.banks[b].reqs[0].seq; bank < 0 || s < seq {
			bank, seq = b, s
		}
	}
	return bank
}

// cappedBefore counts bank b's capped hits (those younger than its oldest
// conflict) that are older than sequence number seq.
func (q *queue) cappedBefore(b int, seq uint64) uint64 {
	bq := &q.banks[b]
	row, n := bq.reqs[bq.hit].decoded.Row, uint64(0)
	for _, r := range bq.reqs[bq.conflict+1:] {
		if r.seq > seq {
			break
		}
		if r.decoded.Row == row {
			n++
		}
	}
	return n
}
