package streaming

import "fmt"

// TimedReducer is the extension interface for reducing functions that
// need the packet timestamp in addition to the sample — the damped
// (decayed) window statistics Kitsune/HELAD build on. The FE-NIC
// runtime feeds ObserveAt when the reducer implements it, falling
// back to Observe otherwise. This follows the paper's extensibility
// story (§4.1: reducing functions "can also be extended by users").
type TimedReducer interface {
	Reducer
	ObserveAt(x int64, ts int64)
}

// Damped reducing functions over 2^(-λΔt) windows. FDWeight/FDMean/
// FDStd are the 1D statistics (w, μ, σ); the FD2D* functions are the
// bidirectional 2D statistics, with direction carried in the sample
// sign exactly like the undamped Bidirectional reducers.
const (
	FDWeight Func = Func(numFuncs) + iota
	FDMean
	FDStd
	FD2DMag
	FD2DRadius
	FD2DCov
	FD2DPCC
	numFuncsExt
)

// NumFuncsTotal counts all reducing functions including the damped
// extension set.
const NumFuncsTotal = int(numFuncsExt)

// IsTimed reports whether f is a damped (timestamp-consuming)
// reducing function; the policy compiler batches the timestamp
// metadata field whenever one is used.
func IsTimed(f Func) bool { return f >= FDWeight && f < numFuncsExt }

// dampedName returns the policy-language name of a damped function,
// or "" if f is not one.
func dampedName(f Func) string {
	switch f {
	case FDWeight:
		return "fd_weight"
	case FDMean:
		return "fd_mean"
	case FDStd:
		return "fd_std"
	case FD2DMag:
		return "fd_mag"
	case FD2DRadius:
		return "fd_radius"
	case FD2DCov:
		return "fd_cov"
	case FD2DPCC:
		return "fd_pcc"
	}
	return ""
}

// SharesWindow reports whether statistics a and b (with their
// parameters) can be computed from one damped window: both belong to
// the same damped family (1D or 2D) with an equal decay rate. Such
// statistics see identical (sample, timestamp) streams, so separate
// windows would evolve identically and one window emits the same
// bits for all of them.
func SharesWindow(a Func, pa Params, b Func, pb Params) bool {
	fa, fb := dampedFamily(a), dampedFamily(b)
	return fa != 0 && fa == fb && pa.Lambda == pb.Lambda
}

// dampedFamily returns 1 for the 1D damped statistics, 2 for the 2D
// ones and 0 for every other function.
func dampedFamily(f Func) int {
	switch f {
	case FDWeight, FDMean, FDStd:
		return 1
	case FD2DMag, FD2DRadius, FD2DCov, FD2DPCC:
		return 2
	}
	return 0
}

// dampedEmits holds one single-statistic emit list per damped
// function, so single-statistic reducers share static storage instead
// of allocating a one-element slice each.
var dampedEmits = [...]Func{FDWeight, FDMean, FDStd, FD2DMag, FD2DRadius, FD2DCov, FD2DPCC}

// singleEmit returns the static one-element emit list of damped f.
func singleEmit(f Func) []Func {
	i := int(f - FDWeight)
	return dampedEmits[i : i+1 : i+1]
}

// Damped1D adapts DampedWelford to the Reducer interface. One window
// emits any list of 1D statistics (weight, mean, stddev) in order,
// which is how the FE-NIC shares a window between the fd_weight,
// fd_mean and fd_std of one reduce at one λ.
type Damped1D struct {
	emits []Func // retained, never modified
	w     DampedWelford
}

// NewDamped1D builds a damped 1D reducer with decay rate lambda (1/s)
// emitting one statistic: FDWeight, FDMean or FDStd. NewShared builds
// a window emitting several.
func NewDamped1D(emit Func, lambda float64) *Damped1D {
	return &Damped1D{emits: singleEmit(emit), w: DampedWelford{Lambda: lambda}}
}

// ObserveAt folds a timestamped sample.
//
//superfe:hotpath
func (d *Damped1D) ObserveAt(x int64, ts int64) { d.w.ObserveAt(float64(x), ts) }

// Observe folds a sample with no time advance (decay frozen); the
// runtime always uses ObserveAt.
//
//superfe:hotpath
func (d *Damped1D) Observe(x int64) { d.w.ObserveAt(float64(x), d.w.lastTime) }

// AppendFeatures appends the selected damped statistics in order.
//
//superfe:hotpath
func (d *Damped1D) AppendFeatures(dst []float64) []float64 {
	for _, f := range d.emits {
		switch f {
		case FDMean:
			dst = append(dst, d.w.Mean())
		case FDStd:
			dst = append(dst, d.w.Std())
		default:
			dst = append(dst, d.w.Weight())
		}
	}
	return dst
}

// StateBytes reports the state the emitted statistics would hold in
// separate windows, one DampedWelford each, so sharing a window leaves
// the NIC memory model and the placement inputs unchanged.
func (d *Damped1D) StateBytes() int { return len(d.emits) * d.w.StateBytes() }

// Reset clears the window.
func (d *Damped1D) Reset() { d.w.Reset() }

// Damped2DReducer adapts Damped2D to the Reducer interface: positive
// samples feed stream A (forward), negative samples feed stream B
// (backward) with magnitude |x|. Like Damped1D, one window emits any
// list of 2D statistics in order.
type Damped2DReducer struct {
	emits []Func // retained, never modified
	d     Damped2D
}

// NewDamped2DReducer builds a damped 2D reducer emitting one of the
// FD2D* statistics. NewShared builds a window emitting several.
func NewDamped2DReducer(emit Func, lambda float64) *Damped2DReducer {
	return &Damped2DReducer{emits: singleEmit(emit), d: *NewDamped2D(lambda)}
}

// ObserveAt folds a timestamped directional sample.
//
//superfe:hotpath
func (r *Damped2DReducer) ObserveAt(x int64, ts int64) {
	if x >= 0 {
		r.d.ObserveA(float64(x), ts)
	} else {
		r.d.ObserveB(float64(-x), ts)
	}
}

// Observe folds with a frozen clock; the runtime always uses
// ObserveAt.
//
//superfe:hotpath
func (r *Damped2DReducer) Observe(x int64) { r.ObserveAt(x, r.d.lastTime) }

// AppendFeatures appends the selected damped 2D statistics in order.
//
//superfe:hotpath
func (r *Damped2DReducer) AppendFeatures(dst []float64) []float64 {
	for _, f := range r.emits {
		switch f {
		case FD2DRadius:
			dst = append(dst, r.d.Radius())
		case FD2DCov:
			dst = append(dst, r.d.Cov())
		case FD2DPCC:
			dst = append(dst, r.d.PCC())
		default:
			dst = append(dst, r.d.Magnitude())
		}
	}
	return dst
}

// StateBytes reports the state the emitted statistics would hold in
// separate 2D windows (see Damped1D.StateBytes).
func (r *Damped2DReducer) StateBytes() int { return len(r.emits) * r.d.StateBytes() }

// Reset clears both windows.
func (r *Damped2DReducer) Reset() { r.d.Reset() }

// newDamped dispatches the damped constructors for New.
func newDamped(f Func, p Params) (Reducer, error) {
	return NewShared(singleEmit(f), p)
}

// NewShared constructs one damped window emitting the statistics fs
// in order. Every pair in fs must share the window (see
// SharesWindow); p supplies the common decay rate. fs is retained,
// not copied.
func NewShared(fs []Func, p Params) (Reducer, error) {
	if len(fs) == 0 {
		return nil, fmt.Errorf("streaming: damped window with no statistics")
	}
	if p.Lambda <= 0 {
		return nil, fmt.Errorf("streaming: %s requires a positive decay rate lambda", fs[0])
	}
	fam := dampedFamily(fs[0])
	for _, f := range fs {
		if dampedFamily(f) != fam {
			return nil, fmt.Errorf("streaming: %s cannot share a damped window with %s", f, fs[0])
		}
	}
	switch fam {
	case 1:
		return &Damped1D{emits: fs, w: DampedWelford{Lambda: p.Lambda}}, nil
	case 2:
		return &Damped2DReducer{emits: fs, d: *NewDamped2D(p.Lambda)}, nil
	}
	return nil, fmt.Errorf("streaming: unknown damped function %d", uint8(fs[0]))
}
