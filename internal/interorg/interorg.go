// Package interorg implements distributed inter-organizational workflow
// management as defined in Section 2 of the paper — the approach the paper
// argues against, built so its problems can be demonstrated and measured:
//
//   - workflow instance migration between engines in different
//     organizations (Figures 5a/7a), which requires consistent workflow
//     type copies on both sides;
//   - automatic workflow type migration (Figure 6), which is precisely the
//     mechanism by which one organization's business rules become readable
//     by another;
//   - workflow instance distribution (Figures 5b/7b): a master engine
//     starts subworkflows on a remote slave engine and controls their
//     execution;
//   - knowledge-exposure accounting: what workflow types, conditions
//     (business rules) and instance execution states an organization can
//     read from its engine's database.
package interorg

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/wf"
)

// ErrTypeMissing is returned when migrating an instance to an engine that
// lacks the workflow type and automatic type migration is disabled.
var ErrTypeMissing = errors.New("interorg: target engine lacks workflow type")

// ErrNotMigratable is returned when the instance is not in a migratable
// state.
var ErrNotMigratable = errors.New("interorg: instance not migratable")

// Migrator moves workflow instances (and, when enabled, workflow types)
// between two engines, following Figure 6's protocol:
//
//  1. check if the target engine has the workflow type,
//  2. if not, migrate the workflow type,
//  3. migrate the workflow instance.
type Migrator struct {
	// AutoTypeMigration enables step 2. Without it, migration to an engine
	// lacking the type fails with ErrTypeMissing.
	AutoTypeMigration bool
}

// MigrateInstance moves the identified instance from one engine to the
// other. The source keeps a tombstone in state InstMigrated. Returns
// whether the workflow type had to be migrated too.
func (m Migrator) MigrateInstance(from, to *wf.Engine, instanceID string) (typeMigrated bool, err error) {
	in, err := from.Store().GetInstance(instanceID)
	if err != nil {
		return false, err
	}
	if in.State != wf.InstRunning {
		return false, fmt.Errorf("%w: %s is %s", ErrNotMigratable, instanceID, in.State)
	}
	// Step 1: check if the workflow type exists on the target.
	if !to.Store().HasType(in.Type, in.Version) {
		if !m.AutoTypeMigration {
			return false, fmt.Errorf("%w: %s@%d on engine %s", ErrTypeMissing, in.Type, in.Version, to.Name())
		}
		// Step 2: migrate the workflow type — after this the receiving
		// organization can read the complete definition, including every
		// business rule it contains.
		def, err := from.Store().GetType(in.Type, in.Version)
		if err != nil {
			return false, err
		}
		cp := def.Clone()
		if err := cp.Validate(); err != nil {
			return false, err
		}
		if err := to.Store().PutType(cp); err != nil {
			return false, err
		}
		typeMigrated = true
	}
	// Step 3: migrate the workflow instance.
	if err := to.Store().PutInstance(in); err != nil {
		return typeMigrated, err
	}
	tomb := &wf.Instance{
		ID: in.ID, Type: in.Type, Version: in.Version,
		State: wf.InstMigrated,
		Data:  map[string]any{},
		History: append(append([]wf.Event(nil), in.History...),
			wf.Event{Seq: lastSeq(in) + 1, What: "migrated to engine " + to.Name()}),
	}
	if err := from.Store().PutInstance(tomb); err != nil {
		return typeMigrated, err
	}
	return typeMigrated, nil
}

func lastSeq(in *wf.Instance) int {
	if n := len(in.History); n > 0 {
		return in.History[n-1].Seq
	}
	return 0
}

// DistPortPrefix is the port-name prefix the Coordinator intercepts for
// distributed subworkflow starts: "dist:<engine>:<childType>".
const DistPortPrefix = "dist:"

// ReplyPortPrefix is the port the result is delivered back on:
// "dist-reply:<engine>:<childType>".
const ReplyPortPrefix = "dist-reply:"

// Coordinator implements workflow instance distribution (Figure 5b): a
// master engine whose designated steps start subworkflow instances on
// remote engines. The master workflow models each distributed subworkflow
// as a connection-out step on port "dist:<engine>:<type>" followed by a
// connection-in step on port "dist-reply:<engine>:<type>" — the master
// holds only this interface, never the child's definition; the remote
// engine must hold the full child type (the paper's observation that "the
// remote workflow engine must have all the relevant workflow step types
// available and the master engine does not have to have those").
type Coordinator struct {
	remotes map[string]*wf.Engine
	queue   []distTask
}

type distTask struct {
	masterInstance string
	engine         string
	childType      string
	data           map[string]any
}

// NewCoordinator creates a coordinator over the named remote engines.
func NewCoordinator(remotes map[string]*wf.Engine) *Coordinator {
	return &Coordinator{remotes: remotes}
}

// PortFunc returns the master engine's port function: it intercepts
// distribution ports and enqueues remote starts; other ports fail.
func (c *Coordinator) PortFunc() wf.PortFunc {
	return func(ctx context.Context, in *wf.Instance, s *wf.StepDef, payload any) error {
		engineName, childType, ok := parseDistPort(s.Port, DistPortPrefix)
		if !ok {
			return fmt.Errorf("interorg: port %q is not a distribution port", s.Port)
		}
		if _, known := c.remotes[engineName]; !known {
			return fmt.Errorf("interorg: unknown remote engine %q", engineName)
		}
		data := map[string]any{}
		for k, v := range in.Data {
			data[k] = v
		}
		c.queue = append(c.queue, distTask{
			masterInstance: in.ID,
			engine:         engineName,
			childType:      childType,
			data:           data,
		})
		return nil
	}
}

func parseDistPort(port, prefix string) (engine, childType string, ok bool) {
	if !strings.HasPrefix(port, prefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(port, prefix)
	engine, childType, found := strings.Cut(rest, ":")
	if !found || engine == "" || childType == "" {
		return "", "", false
	}
	return engine, childType, true
}

// Pump runs queued remote subworkflows to completion and delivers their
// results back to the master's waiting reply ports. master is the engine
// whose instances enqueued the work. It returns the number of distributed
// subworkflows executed.
func (c *Coordinator) Pump(ctx context.Context, master *wf.Engine) (int, error) {
	n := 0
	for len(c.queue) > 0 {
		task := c.queue[0]
		c.queue = c.queue[1:]
		remote := c.remotes[task.engine]
		child, err := remote.Start(ctx, task.childType, task.data)
		if err != nil {
			return n, fmt.Errorf("interorg: remote %s start %s: %w", task.engine, task.childType, err)
		}
		if child.State != wf.InstCompleted {
			return n, fmt.Errorf("interorg: remote subworkflow %s did not complete synchronously (state %s)", child.ID, child.State)
		}
		n++
		// The master controls the slave: it absorbs the result and
		// continues its own instance.
		result := child.Data["document"]
		if r, ok := child.Data["result"]; ok {
			result = r
		}
		replyPort := ReplyPortPrefix + task.engine + ":" + task.childType
		if err := master.Deliver(ctx, task.masterInstance, replyPort, result); err != nil {
			return n, fmt.Errorf("interorg: deliver reply to master %s: %w", task.masterInstance, err)
		}
	}
	return n, nil
}

// Exposure is the knowledge an organization can read from its engine's
// workflow database — the paper's Section 2.3 leak, quantified.
type Exposure struct {
	Engine string
	// Types lists visible workflow type keys.
	Types []string
	// Conditions lists every control-flow condition visible in those
	// types; approval thresholds and trading-partner terms live here.
	Conditions []string
	// Instances lists visible instance IDs with their execution state —
	// "workflow instances show the state of execution revealing resource
	// utilization and constraints".
	Instances []string
}

// ExposureOf inspects an engine's workflow database.
func ExposureOf(e *wf.Engine) (*Exposure, error) {
	ex := &Exposure{Engine: e.Name()}
	keys, err := e.Store().ListTypes()
	if err != nil {
		return nil, err
	}
	ex.Types = keys
	condSet := map[string]bool{}
	for _, key := range keys {
		name, version := splitTypeKey(key)
		def, err := e.Store().GetType(name, version)
		if err != nil {
			return nil, err
		}
		for _, a := range def.Arcs {
			if a.Condition != "" && !condSet[a.Condition] {
				condSet[a.Condition] = true
				ex.Conditions = append(ex.Conditions, a.Condition)
			}
		}
	}
	sort.Strings(ex.Conditions)
	ids, err := e.Store().ListInstances()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		in, err := e.Store().GetInstance(id)
		if err != nil {
			return nil, err
		}
		ex.Instances = append(ex.Instances, fmt.Sprintf("%s:%s", id, in.State))
	}
	return ex, nil
}

func splitTypeKey(key string) (string, int) {
	name, ver, _ := strings.Cut(key, "@")
	v := 0
	fmt.Sscanf(ver, "%d", &v)
	return name, v
}

// CanReadCondition reports whether the organization owning the engine can
// read the given business rule (condition) from its database.
func CanReadCondition(e *wf.Engine, condition string) (bool, error) {
	ex, err := ExposureOf(e)
	if err != nil {
		return false, err
	}
	for _, c := range ex.Conditions {
		if c == condition {
			return true, nil
		}
	}
	return false, nil
}
