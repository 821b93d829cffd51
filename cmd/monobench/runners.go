package main

import (
	"io"

	"repro/internal/figures"
)

// The figure-5 run also carries the figure-6 utilization data, and the
// figure-12 run carries figures 15 and 17; these adapters select the view.

func figFig6(o figures.Options) ([]printer, error) {
	r, err := figures.Fig05(o)
	if err != nil {
		return nil, err
	}
	return []printer{printFunc(r.FprintFig6)}, nil
}

func figFig15(o figures.Options) ([]printer, error) {
	r, err := figures.Fig12(o)
	if err != nil {
		return nil, err
	}
	return []printer{printFunc(r.FprintFig15)}, nil
}

func figFig17(o figures.Options) ([]printer, error) {
	r, err := figures.Fig12(o)
	if err != nil {
		return nil, err
	}
	return []printer{printFunc(r.FprintFig17)}, nil
}

// printFunc adapts a method value to the printer interface.
type printFunc func(io.Writer)

func (f printFunc) Fprint(w io.Writer) { f(w) }

func figAblations(o figures.Options) ([]printer, error) {
	var out []printer
	for _, f := range []func(figures.Options) (*figures.AblationResult, error){
		figures.AblationPhaseRR,
		figures.AblationSpareMultitask,
		figures.AblationNetLimit,
		figures.AblationSSDConcurrency,
		figures.AblationLoadAwareWrites,
		figures.AblationNetworkPolicy,
	} {
		r, err := f(o)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
