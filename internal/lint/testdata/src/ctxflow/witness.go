package fixture

import "context"

// Witnesses for how the context parameter is found and for the calls the
// bypass rule leaves alone.

// Good: an unnamed context parameter cannot be threaded; nothing to check.
func Unnamed(context.Context, int) error {
	return Fetch(0)
}

// Good: a blank context parameter is an explicit opt-out.
func Blank(_ context.Context, id int) error {
	return Fetch(id)
}

// Bad: a dot-imported Context is still the context, wherever it sits in the
// parameter list.
func DotImported(p *Plan, ids []int, ctx Context) error { // want
	return Fetch(len(ids))
}

// Good: unexported functions are the implementation side of the API.
func unexported(ctx context.Context, id int) error {
	return Fetch(id)
}

// Good: calls through a function value have no name to look a Context
// variant up by, and a call that already is a Context variant needs none.
func Dispatch(ctx context.Context, fns []func(int) error, id int) error {
	if err := fns[0](id); err != nil {
		return err
	}
	return ScanContext(ctx, int64(id))
}

// Good: the plain variant handed the context as an argument is threaded.
func Explicit(ctx context.Context, id int) error {
	return Load(pick(ctx, id))
}

func Load(id int) error { return nil }

func LoadContext(ctx context.Context, id int) error {
	return Load(pick(ctx, id))
}

// Good: no context parameter, no obligation.
func NoContext(id int) error {
	return Fetch(id)
}
