package remote

import (
	"fmt"
	"slices"

	"leap/internal/core"
)

// copyPage copies page from agent src onto targets, in order: the one way a
// page moves between agents outside the ticket engine — repair and migration
// (copySlabTo), re-push (repushDegraded) and hot copies (ReplicateHot,
// DropHot). The source read runs with h.mu released and snapshots the page's
// write generation. A target the page's writes go to (writeTargets: a
// placement replica or a hot holder) could meet a write frame and the copy in
// either order, and the write's ack would vouch for whichever came last; so it
// is written only under h.mu, where no write of the page can start, and only
// while none is pending and none has completed since the source read — else
// the page is left to that write. Any other target is written with h.mu
// released. With certify (src acknowledged the page's latest write), a target
// that took the copy joins the page's ack set if no write completed since the
// source read. readErr is the source read's failure, when nothing is written;
// writeErr the first target's that refused the copy.
func (h *Host) copyPage(page core.PageID, src int, targets []int, certify bool) (readErr, writeErr error) {
	slab, off := h.locate(page)
	h.mu.Lock()
	gen, tr := h.rec(page).generation(), h.links[src].tr
	h.mu.Unlock()
	rd, err := tr.Call(&Request{Op: OpRead, Slab: slab, PageOff: off})
	if err = callError(OpRead, rd, err); err != nil {
		return fmt.Errorf("remote: copy page %d from agent %d: %w", page, src, err), nil
	}
	for _, idx := range targets {
		h.mu.Lock()
		held := slices.Contains(h.writeTargets(page, h.placements[slab]), idx)
		if r := h.rec(page); held && (r.dirty() != nil || r.generation() != gen) {
			h.mu.Unlock()
			continue
		}
		dst := h.links[idx].tr
		if !held {
			h.mu.Unlock()
		}
		wr, err := dst.Call(&Request{Op: OpWrite, Slab: slab, PageOff: off, Payload: rd.Payload})
		if !held {
			h.mu.Lock()
		}
		if err = callError(OpWrite, wr, err); err != nil {
			if writeErr == nil {
				writeErr = fmt.Errorf("remote: copy page %d to agent %d: %w", page, idx, err)
			}
		} else if r := h.rec(page); certify && len(r.acked()) > 0 && r.gen == gen && !slices.Contains(r.acks, idx) {
			r.acks = append(r.acks, idx)
		}
		h.mu.Unlock()
	}
	return nil, writeErr
}

// callError is a Call's failure: the transport's, or the agent's status.
func callError(op uint8, resp *Response, err error) error {
	if err != nil {
		return err
	}
	return statusError(op, resp.Status)
}
