package transport

import "sync"

// AnySource and AnyTag are the Recv wildcards, mirroring MPI_ANY_SOURCE and
// MPI_ANY_TAG. internal/mpi re-exports them.
const (
	AnySource = -1
	AnyTag    = -1
)

// mailbox is one rank's unbounded incoming-message queue with (src, tag)
// matching in arrival order. Both transports use it: the local transport
// puts from the sending rank's goroutine, the TCP transport from the
// per-connection reader goroutines.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Message
	aborted bool
	abortEr error
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) abort(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.aborted {
		b.aborted = true
		b.abortEr = err
		b.cond.Broadcast()
	}
}

func (b *mailbox) put(m Message) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return b.abortEr
	}
	b.queue = append(b.queue, m)
	b.cond.Broadcast()
	return nil
}

func (b *mailbox) get(src, tag int) (Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.aborted {
			return Message{}, b.abortEr
		}
		for i, m := range b.queue {
			if (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag) {
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				return m, nil
			}
		}
		b.cond.Wait()
	}
}
