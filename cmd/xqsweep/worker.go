package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"xqsim"
	"xqsim/internal/server"
)

// gridClient speaks the xqd grid protocol (see internal/server: POST
// /grids, POST /grids/{id}/lease, POST /grids/{id}/cells/{index},
// .../renew, GET /grids/{id}/result).
type gridClient struct {
	base   string
	client *http.Client
}

func newGridClient(base string) *gridClient {
	return &gridClient{base: strings.TrimRight(base, "/"), client: &http.Client{Timeout: 30 * time.Second}}
}

// apiError decodes the daemon's {"error": ...} body into a Go error.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e server.ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("xqd: %s (%s)", e.Error, resp.Status)
	}
	return fmt.Errorf("xqd: %s", resp.Status)
}

// call sends body, as JSON unless nil, to path and decodes the reply
// into out: the raw bytes for a *[]byte, JSON otherwise. A reply above
// 2xx is the daemon's error, returned with its status code.
func (c *gridClient) call(ctx context.Context, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode >= 300 {
		return resp.StatusCode, apiError(resp)
	}
	switch out := out.(type) {
	case nil:
	case *[]byte:
		*out, err = io.ReadAll(resp.Body)
	default:
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, err
}

func (c *gridClient) create(ctx context.Context, g xqsim.GridSpec) (server.GridCreateResponse, error) {
	var out server.GridCreateResponse
	_, err := c.call(ctx, http.MethodPost, "/grids", g, &out)
	return out, err
}

func (c *gridClient) lease(ctx context.Context, id, worker string, max int) (server.LeaseResponse, error) {
	var out server.LeaseResponse
	_, err := c.call(ctx, http.MethodPost, "/grids/"+id+"/lease", server.LeaseRequest{Worker: worker, Max: max}, &out)
	return out, err
}

func (c *gridClient) renew(ctx context.Context, id, worker string, index int) error {
	_, err := c.call(ctx, http.MethodPost, fmt.Sprintf("/grids/%s/cells/%d/renew", id, index), server.RenewRequest{Worker: worker}, nil)
	return err
}

// complete pushes one cell's pinned bytes. conflict=true reports a 409:
// the daemon already holds different bytes for the cell, a determinism
// violation the worker must not paper over.
func (c *gridClient) complete(ctx context.Context, id string, r xqsim.GridCellResult) (conflict bool, err error) {
	raw, err := xqsim.MarshalGridCell(r)
	if err != nil {
		return false, err
	}
	code, err := c.call(ctx, http.MethodPost, fmt.Sprintf("/grids/%s/cells/%d", id, r.Index), json.RawMessage(raw), nil)
	return code == http.StatusConflict, err
}

func (c *gridClient) result(ctx context.Context, id string) ([]byte, error) {
	var out []byte
	_, err := c.call(ctx, http.MethodGet, "/grids/"+id+"/result", nil, &out)
	return out, err
}

// runGridSubmit registers the grid with the daemon and prints its id —
// the handle workers and -fetch use.
func runGridSubmit(ctx context.Context, f gridFlags) error {
	g, err := f.buildGridSpec()
	if err != nil {
		return err
	}
	reply, err := newGridClient(f.submit).create(ctx, g)
	if err != nil {
		return err
	}
	_, _ = fmt.Fprintf(f.stderr, "grid %s (%d cells): %s\n", reply.ID, reply.Cells, reply.Status)
	_, _ = fmt.Fprintln(f.stdout, reply.ID)
	return nil
}

// runGridFetch downloads the merged grid JSONL — byte-identical to a
// single-process run — once every cell is complete.
func runGridFetch(ctx context.Context, f gridFlags) error {
	if f.gridID == "" {
		return fmt.Errorf("-fetch needs -grid-id")
	}
	out, err := newGridClient(f.fetch).result(ctx, f.gridID)
	if err != nil {
		return err
	}
	if f.jsonl != "" {
		if err := os.WriteFile(f.jsonl, out, 0o644); err != nil {
			return err
		}
		_, _ = fmt.Fprintf(f.stderr, "fetched grid %s to %s\n", f.gridID, f.jsonl)
		return nil
	}
	_, err = f.stdout.Write(out)
	return err
}

// runGridWorker is the work-stealing loop: lease a batch of cells,
// run each through the checkpoint machinery (so a restarted worker
// re-pushes instead of recomputing), push the pinned bytes, repeat
// until the daemon reports the grid done. A background goroutine
// renews the leases on every not-yet-pushed cell of the batch at a
// third of the TTL — queued cells included, so only a dead worker's
// leases expire.
func runGridWorker(ctx context.Context, f gridFlags) error {
	if f.gridID == "" {
		return fmt.Errorf("-worker needs -grid-id")
	}
	if f.workerName == "" {
		host, _ := os.Hostname()
		f.workerName = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if f.leaseBatch <= 0 {
		f.leaseBatch = 1
	}
	c := newGridClient(f.worker)

	// Leased cells are self-contained (d, p, rounds, trials, per-cell
	// seed); the only spec field execution needs beyond them is the
	// kind, which rides the lease reply's status snapshot.
	var kind string

	// A worker's snapshot is keyed by the grid id alone: leased cells
	// carry everything else.
	fresh := xqsim.NewSweepCheckpoint(0, 0)
	fresh.Grid = f.gridID
	ck, err := openCheckpoint(f.checkpoint, true, fresh, f.stderr, "worker "+f.workerName+": ")
	if err != nil {
		return err
	}
	if ck != nil {
		// Re-push anything a previous life computed but may not have
		// delivered; completion is idempotent, so double-push is safe.
		for _, i := range sortedKeys(ck.Cells) {
			if conflict, err := c.complete(ctx, f.gridID, ck.Cells[i]); conflict {
				return err
			} else if err != nil {
				_, _ = fmt.Fprintf(f.stderr, "worker %s: re-push cell %d: %v\n", f.workerName, i, err)
			}
		}
	}

	var (
		results []xqsim.GridCellResult
		timings []xqsim.GridCellTiming
	)
	clock := monotonicClock()
	ran := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		reply, err := c.lease(ctx, f.gridID, f.workerName, f.leaseBatch)
		if err != nil {
			return err
		}
		kind = reply.Status.Kind
		if len(reply.Cells) == 0 {
			if reply.Status.Done {
				_, _ = fmt.Fprintf(f.stderr, "worker %s: grid %s done (%d/%d cells, ran %d here)\n",
					f.workerName, f.gridID, reply.Status.Complete, reply.Status.Cells, ran)
				break
			}
			// Everything unfinished is leased elsewhere; poll until a
			// lease expires or the grid completes.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(200 * time.Millisecond):
			}
			continue
		}
		g := xqsim.GridSpec{Kind: kind}
		renew := startBatchRenewal(ctx, c, f, reply.Cells)
		for _, lc := range reply.Cells {
			if lc.Attempt > 1 {
				_, _ = fmt.Fprintf(f.stderr, "worker %s: cell %d re-leased (attempt %d)\n", f.workerName, lc.Cell.Index, lc.Attempt)
			}
			r, t, cached, err := ck.Cell(ctx, f.checkpoint, g, lc.Cell, clock)
			if err != nil {
				renew.stop()
				return err
			}
			results = append(results, r)
			timings = append(timings, t)
			if !cached {
				ran++
			}
			conflict, err := c.complete(ctx, f.gridID, r)
			// Pushed, conflicted, or failed: stop renewing either way. On
			// a transient push failure the lease expires and another
			// worker (or this one's restart, via the checkpoint) rescues
			// the cell.
			renew.done(r.Index)
			if conflict {
				renew.stop()
				return err
			}
			if err != nil {
				_, _ = fmt.Fprintf(f.stderr, "worker %s: push cell %d: %v\n", f.workerName, r.Index, err)
			}
		}
		renew.stop()
	}

	if f.csv != "" && len(results) > 0 {
		g := xqsim.GridSpec{Kind: kind}
		if err := writeFileWith(f.csv, func(w io.Writer) error {
			return xqsim.WriteGridCSV(w, g, "", results, timings)
		}); err != nil {
			return err
		}
		_, _ = fmt.Fprintf(f.stderr, "worker %s: wrote timings to %s\n", f.workerName, f.csv)
	}
	return nil
}

// batchRenewal keeps every leased-but-unfinished cell of one batch
// alive: a single goroutine renews all pending leases at a third of
// the TTL, queued cells included — without it, cells waiting behind a
// slow batch-mate would expire and get recomputed elsewhere.
type batchRenewal struct {
	cancel context.CancelFunc
	mu     sync.Mutex
	left   map[int]bool
}

// done removes a pushed (or abandoned) cell from the renewal set.
func (r *batchRenewal) done(index int) {
	r.mu.Lock()
	delete(r.left, index)
	r.mu.Unlock()
}

func (r *batchRenewal) stop() { r.cancel() }

func (r *batchRenewal) pending() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.left)
}

func startBatchRenewal(ctx context.Context, c *gridClient, f gridFlags, cells []server.LeasedCell) *batchRenewal {
	rctx, cancel := context.WithCancel(ctx)
	r := &batchRenewal{cancel: cancel, left: map[int]bool{}}
	ttl := time.Second
	for _, lc := range cells {
		r.left[lc.Cell.Index] = true
		if d := time.Duration(lc.TTLMillis) * time.Millisecond; d > 0 {
			ttl = d
		}
	}
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-rctx.Done():
				return
			case <-t.C:
				for _, i := range r.pending() {
					if err := c.renew(rctx, f.gridID, f.workerName, i); err != nil && rctx.Err() == nil {
						// Lost lease (expired and re-leased, or daemon
						// gone): keep computing — completion is
						// idempotent, the first result to land wins.
						_, _ = fmt.Fprintf(f.stderr, "worker %s: renew cell %d: %v\n", f.workerName, i, err)
					}
				}
			}
		}
	}()
	return r
}

// sortedKeys returns m's keys ascending.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
