package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/msg"
)

// TestConcurrentExchanges drives many exchanges through one hub from
// parallel goroutines: every exchange completes with the right
// correlation, and the back ends see each order exactly once.
func TestConcurrentExchanges(t *testing.T) {
	h := newFig14Hub(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const perWorker = 25
	workers := []struct {
		buyer doc.Party
	}{
		{tp1}, {tp2}, {tp1}, {tp2},
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(workers)*perWorker)
	for wi, w := range workers {
		wg.Add(1)
		go func(wi int, buyer doc.Party) {
			defer wg.Done()
			g := doc.NewGenerator(int64(100 + wi))
			for i := 0; i < perWorker; i++ {
				po := g.PO(buyer, seller)
				// Two workers share a buyer; uniquify the order numbers
				// they generate independently.
				po.ID = fmt.Sprintf("%s-w%d", po.ID, wi)
				poa, _, err := roundTrip(h, ctx, po)
				if err != nil {
					errCh <- fmt.Errorf("worker %d order %d: %w", wi, i, err)
					return
				}
				if poa.POID != po.ID {
					errCh <- fmt.Errorf("worker %d order %d: correlation %q != %q", wi, i, poa.POID, po.ID)
					return
				}
			}
		}(wi, w.buyer)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	wantSAP, wantOracle := 2*perWorker, 2*perWorker
	if got := h.Systems["SAP"].StoredOrders(); got != wantSAP {
		t.Errorf("SAP stored %d, want %d", got, wantSAP)
	}
	if got := h.Systems["Oracle"].StoredOrders(); got != wantOracle {
		t.Errorf("Oracle stored %d, want %d", got, wantOracle)
	}
}

// TestConcurrentClientsOverNetwork runs multiple partners concurrently
// against a served hub over a mildly faulty network.
func TestConcurrentClientsOverNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("network sweep")
	}
	h := newFig14Hub(t)
	n := msg.NewInProcNetwork(msg.Faults{LossProb: 0.1, Seed: 5})
	defer n.Close()
	rcfg := msg.ReliableConfig{RetryInterval: 10 * time.Millisecond, MaxAttempts: 80}
	hubEP, err := n.Endpoint("hub")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(h, hubEP, WithReliableConfig(rcfg))
	defer server.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	// Several serving goroutines so exchanges overlap.
	for i := 0; i < 4; i++ {
		go server.Serve(ctx, nil)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for _, p := range h.Snapshot().Model.Partners {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, err := n.Endpoint(p.ID)
			if err != nil {
				errCh <- err
				return
			}
			client := NewClient(p, ep, rcfg, "hub")
			defer client.Close()
			g := doc.NewGenerator(int64(len(p.ID)))
			buyer := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
			for i := 0; i < 10; i++ {
				po := g.PO(buyer, seller)
				poa, err := client.RoundTrip(ctx, po)
				if err != nil {
					errCh <- fmt.Errorf("%s order %d: %w", p.ID, i, err)
					return
				}
				if poa.POID != po.ID {
					errCh <- fmt.Errorf("%s order %d: wrong correlation", p.ID, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := h.Systems["SAP"].StoredOrders() + h.Systems["Oracle"].StoredOrders(); got != 20 {
		t.Errorf("back ends stored %d orders, want 20", got)
	}
}

// TestAddPartnerRacesAdmissions adds partners to a live hub while its
// workers admit orders, and each new partner's first order races its own
// AddPartner. Run under -race it holds the partner index to copy-on-write
// publication (a worker resolving a route never reads a model being
// written); in any mode an order either completes or, admitted before its
// partner joined, fails with ErrUnknownPartner — never on a type that is
// not deployed yet (TP3 brings the OAGIS processes with it).
func TestAddPartnerRacesAdmissions(t *testing.T) {
	h := newFig14Hub(t, WithShards(2), WithWorkersPerShard(2))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := doc.NewGenerator(int64(300 + w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				po := g.PO(tp1, seller)
				po.ID = fmt.Sprintf("%s-w%d", po.ID, w)
				if _, _, err := roundTrip(h, ctx, po); err != nil {
					errs <- fmt.Errorf("TP1 order during partner additions: %w", err)
					return
				}
			}
		}(w)
	}
	partners := []TradingPartner{Figure15Partner()}
	for i := 0; i < 40; i++ {
		partners = append(partners, TradingPartner{ID: fmt.Sprintf("TPX%02d", i), Name: "X", DUNS: "0",
			Protocol: formats.EDI, Backend: "SAP", ApprovalThreshold: float64(1000 * (i + 1))})
	}
	for i, p := range partners {
		race := make(chan error, 1)
		go func() {
			buyer := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
			_, _, err := roundTrip(h, ctx, doc.NewGenerator(int64(400+i)).PO(buyer, seller))
			race <- err
		}()
		if _, err := h.AddPartner(p); err != nil {
			t.Fatal(err)
		}
		if err := <-race; err != nil && !errors.Is(err, ErrUnknownPartner) {
			t.Fatalf("%s's order racing its AddPartner: %v", p.ID, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := len(h.Snapshot().Model.Partners); n != 2+len(partners) {
		t.Fatalf("%d partners after the additions, want %d", n, 2+len(partners))
	}
}
