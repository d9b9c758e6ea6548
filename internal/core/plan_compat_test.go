package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/doc"
)

// TestPlanInterpreterMatchesLegacyHub pins the hub's workflow execution on
// the paper's model to a golden transcript: PO round trips and invoice flows
// for every partner of the Figure 14 hub, rendered as the outbound POAs and
// every workflow instance's type, state, error and full event history. The
// transcript was written by the pre-plan TypeDef interpreter; the wf
// package's compat goldens cover synthetic graphs, this one the actual
// model.
func TestPlanInterpreterMatchesLegacyHub(t *testing.T) {
	hub := newFig14Hub(t)
	if _, err := hub.EnableInvoicing(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	ctx := context.Background()
	seller := doc.Party{ID: "HUB", Name: "Widget Inc", DUNS: "999999999"}
	for _, p := range hub.Snapshot().Model.Partners {
		g := doc.NewGenerator(int64(len(p.ID) + int(p.ApprovalThreshold)))
		buyer := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
		for i := 0; i < 3; i++ {
			po := g.PO(buyer, seller)
			res, err := hub.Do(ctx, Request{Kind: DocPO, PO: po})
			if err != nil {
				t.Fatalf("%s order %d: %v", p.ID, i, err)
			}
			poa, err := json.Marshal(res.POA)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "poa %s\n", poa)
			if i == 0 {
				if _, err := hub.Do(ctx, Request{Kind: DocInvoice, PartnerID: p.ID, POID: po.ID}); err != nil {
					t.Fatalf("%s invoice: %v", p.ID, err)
				}
			}
		}
	}

	ids, err := hub.Engine.Store().ListInstances()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("no instances recorded")
	}
	for _, id := range ids {
		in, err := hub.Engine.Store().GetInstance(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "instance %s %s %s\n", in.ID, in.Type, in.State)
		if in.Error != "" {
			fmt.Fprintf(&buf, "  error: %s\n", in.Error)
		}
		for _, ev := range in.History {
			fmt.Fprintf(&buf, "  event %d [%s] %s\n", ev.Seq, ev.Step, ev.What)
		}
	}

	path := filepath.Join("testdata", "hub_instances.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var a, b string
		if i < len(got) {
			a = got[i]
		}
		if i < len(exp) {
			b = exp[i]
		}
		if a != b {
			t.Fatalf("%s:%d differs\n got: %q\nwant: %q", path, i+1, a, b)
		}
	}
}
