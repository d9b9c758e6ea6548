package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/formats/edi"
	"repro/internal/msg"
	"repro/internal/transform"
)

// Server fronts a Hub with the reliable messaging layer: it receives
// protocol documents from trading partners over the network, runs the
// exchange, and sends the response back — the full deployment of Figure 14
// with the "Network" cloud in between.
type Server struct {
	Hub *Hub
	rel *msg.Reliable
}

// NewServer attaches the hub to a network endpoint. Options configure the
// reliable-messaging layer (WithReliableConfig); the zero configuration is
// used without options.
func NewServer(h *Hub, ep msg.Endpoint, opts ...ServerOption) *Server {
	var cfg serverConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Server{Hub: h, rel: msg.NewReliable(ep, cfg.reliable)}
}

// Close shuts the server's endpoint down.
func (s *Server) Close() error { return s.rel.Close() }

// Stats exposes the server's reliable-messaging counters.
func (s *Server) Stats() msg.ReliableStats { return s.rel.Stats() }

// respond sends an exchange's outcome back to the requester: first any
// protocol-level signals (e.g. 997 functional acknowledgments), in the
// order the exchange emitted them, then the POA reply itself.
func (s *Server) respond(ctx context.Context, m *msg.Message, ex *Exchange, out []byte) error {
	for _, sig := range ex.Signals {
		dt, ok := nativeDocType(sig)
		if !ok {
			return fmt.Errorf("core: cannot determine document type of signal %T", sig)
		}
		codec, err := s.Hub.codecs.Lookup(formats.Format(m.Protocol), dt)
		if err != nil {
			return err
		}
		wire, err := codec.Encode(sig)
		if err != nil {
			return err
		}
		if err := s.rel.Send(ctx, m.From, &msg.Message{
			CorrelationID: m.CorrelationID,
			Protocol:      m.Protocol,
			DocType:       string(dt),
			Body:          wire,
		}); err != nil {
			return err
		}
	}
	return s.rel.Send(ctx, m.From, &msg.Message{
		CorrelationID: m.CorrelationID,
		Protocol:      m.Protocol,
		DocType:       string(doc.TypePOA),
		Body:          out,
	})
}

// PushInvoice runs the outbound invoice flow for a fulfilled order and
// sends the resulting protocol-native invoice to the partner — the server
// side of the one-way message pattern.
func (s *Server) PushInvoice(ctx context.Context, partnerID, poID string) (*Exchange, error) {
	res, err := s.Hub.Do(ctx, Request{Kind: DocInvoice, PartnerID: partnerID, POID: poID})
	if err != nil {
		return res.Exchange, err
	}
	return res.Exchange, s.rel.Send(ctx, partnerID, &msg.Message{
		CorrelationID: poID,
		Protocol:      string(res.Exchange.Protocol),
		DocType:       string(doc.TypeINV),
		Body:          res.Wire,
	})
}

// nativeDocType maps a native signal value to its normalized document type.
func nativeDocType(v any) (doc.DocType, bool) {
	switch v.(type) {
	case *edi.FA997:
		return doc.TypeFA, true
	}
	return "", false
}

// Serve processes inbound purchase orders until the context is done or the
// endpoint closes. Each inbound order is submitted to the hub's sharded
// scheduler (the sender's partner ID is the shard key), which runs the
// topology the hub was built with (WithShards, WithWorkersPerShard,
// WithQueueDepth), and a reply goroutine per exchange sends the response
// as soon as its future resolves — replies are not serialized behind slower
// exchanges. Serve returns after in-flight replies finish. It never starts
// a stopped scheduler: after a Drain every order is refused with
// ErrHubStopped. Per-exchange errors are sent to errs if non-nil and do not
// stop the loop.
func (s *Server) Serve(ctx context.Context, errs chan<- error) {
	report := func(err error) {
		if errs != nil {
			select {
			case errs <- err:
			default:
			}
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		m, err := s.rel.Recv(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, msg.ErrClosed) {
				return
			}
			report(err)
			continue
		}
		if m.DocType != string(doc.TypePO) {
			report(fmt.Errorf("core: server expected a purchase order, got %q", m.DocType))
			continue
		}
		fut, err := s.Hub.DoAsync(ctx, Request{Kind: DocWirePO, Protocol: formats.Format(m.Protocol), Wire: m.Body, PartnerID: m.From})
		if err != nil {
			report(err)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return
			}
			continue
		}
		wg.Add(1)
		go func(m *msg.Message, fut *Future) {
			defer wg.Done()
			res := fut.Result(ctx)
			if res.Err != nil {
				report(res.Err)
				return
			}
			if err := s.respond(ctx, m, res.Exchange, res.Wire); err != nil {
				report(err)
			}
		}(m, fut)
	}
}

// Client is a trading partner's side of the exchange: it encodes normalized
// purchase orders into the partner's protocol, sends them to the hub, and
// decodes the acknowledgment that comes back.
type Client struct {
	Partner TradingPartner
	rel     *msg.Reliable
	hubAddr string
	reg     *transform.Registry
	codecs  *formats.Registry

	mu       sync.Mutex
	signals  []*doc.FunctionalAck
	invoices []*doc.Invoice
}

// NewClient attaches a partner to a network endpoint, targeting hubAddr.
func NewClient(p TradingPartner, ep msg.Endpoint, cfg msg.ReliableConfig, hubAddr string) *Client {
	reg := &transform.Registry{}
	transform.RegisterAll(reg)
	return &Client{
		Partner: p,
		rel:     msg.NewReliable(ep, cfg),
		hubAddr: hubAddr,
		reg:     reg,
		codecs:  NewCodecRegistry(),
	}
}

// Close shuts the client's endpoint down.
func (c *Client) Close() error { return c.rel.Close() }

// Stats exposes the client's reliable-messaging counters.
func (c *Client) Stats() msg.ReliableStats { return c.rel.Stats() }

// FunctionalAcks returns the protocol-level receipt acknowledgments the
// client has received (997s, when the hub's public process issues them).
func (c *Client) FunctionalAcks() []*doc.FunctionalAck {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*doc.FunctionalAck(nil), c.signals...)
}

// stashInvoice decodes and queues an inbound one-way invoice.
func (c *Client) stashInvoice(wire []byte) error {
	codec, err := c.codecs.Lookup(c.Partner.Protocol, doc.TypeINV)
	if err != nil {
		return err
	}
	native, err := codec.Decode(wire)
	if err != nil {
		return err
	}
	nd, err := c.reg.ToNormalized(c.Partner.Protocol, doc.TypeINV, native)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.invoices = append(c.invoices, nd.(*doc.Invoice))
	c.mu.Unlock()
	return nil
}

// ReceiveInvoice blocks until a one-way invoice arrives (or returns one
// already received while waiting for something else).
func (c *Client) ReceiveInvoice(ctx context.Context) (*doc.Invoice, error) {
	for {
		c.mu.Lock()
		if len(c.invoices) > 0 {
			inv := c.invoices[0]
			c.invoices = c.invoices[1:]
			c.mu.Unlock()
			return inv, nil
		}
		c.mu.Unlock()
		m, err := c.rel.Recv(ctx)
		if err != nil {
			return nil, err
		}
		if m.DocType != string(doc.TypeINV) {
			continue // unrelated traffic while waiting for the invoice
		}
		if err := c.stashInvoice(m.Body); err != nil {
			return nil, err
		}
	}
}

// RoundTrip sends the purchase order in the partner's protocol and waits
// for the matching acknowledgment.
func (c *Client) RoundTrip(ctx context.Context, po *doc.PurchaseOrder) (*doc.PurchaseOrderAck, error) {
	native, err := c.reg.FromNormalized(c.Partner.Protocol, doc.TypePO, po)
	if err != nil {
		return nil, err
	}
	codec, err := c.codecs.Lookup(c.Partner.Protocol, doc.TypePO)
	if err != nil {
		return nil, err
	}
	wire, err := codec.Encode(native)
	if err != nil {
		return nil, err
	}
	if err := c.rel.Send(ctx, c.hubAddr, &msg.Message{
		CorrelationID: po.ID,
		Protocol:      string(c.Partner.Protocol),
		DocType:       string(doc.TypePO),
		Body:          wire,
	}); err != nil {
		return nil, err
	}
	for {
		m, err := c.rel.Recv(ctx)
		if err != nil {
			return nil, err
		}
		if m.CorrelationID != po.ID {
			continue // a reply for a different in-flight order of this client
		}
		if m.DocType == string(doc.TypeINV) {
			if err := c.stashInvoice(m.Body); err != nil {
				return nil, err
			}
			continue
		}
		if m.DocType == string(doc.TypeFA) {
			// A protocol-level receipt signal: record it and keep waiting
			// for the business response.
			faCodec, err := c.codecs.Lookup(c.Partner.Protocol, doc.TypeFA)
			if err != nil {
				return nil, err
			}
			nativeFA, err := faCodec.Decode(m.Body)
			if err != nil {
				return nil, err
			}
			nd, err := c.reg.ToNormalized(c.Partner.Protocol, doc.TypeFA, nativeFA)
			if err != nil {
				return nil, err
			}
			c.mu.Lock()
			c.signals = append(c.signals, nd.(*doc.FunctionalAck))
			c.mu.Unlock()
			continue
		}
		poaCodec, err := c.codecs.Lookup(c.Partner.Protocol, doc.TypePOA)
		if err != nil {
			return nil, err
		}
		nativePOA, err := poaCodec.Decode(m.Body)
		if err != nil {
			return nil, err
		}
		nd, err := c.reg.ToNormalized(c.Partner.Protocol, doc.TypePOA, nativePOA)
		if err != nil {
			return nil, err
		}
		return nd.(*doc.PurchaseOrderAck), nil
	}
}
