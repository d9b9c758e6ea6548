package wf

import "context"

// ResumeParent propagates a finished child's state to its parked parent, as
// Deliver and Expire do after a successful advance. A child that fails
// inside Deliver reports the failure to the caller and leaves its parent
// parked, so tests propagate the failure with this.
func ResumeParent(ctx context.Context, e *Engine, childID string) error {
	child, err := e.store.GetInstance(childID)
	if err != nil {
		return err
	}
	return e.resumeParentIfDone(ctx, child)
}
