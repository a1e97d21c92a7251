// Command quadratic answers ad-hoc queries on the convex-quadratic analysis:
// the convergence rate and half-life of any method at a given momentum,
// normalized rate and delay. The analysis figures (Figs. 3-7 and 12) print
// from cmd/experiments -run fig3 … fig12.
//
// Usage:
//
//	quadratic -method combined -m 0.99 -etalambda 0.01 -delay 4
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/quadratic"
)

func main() {
	method := flag.String("method", "", "method: gdm, nesterov, scd, lwpd, combined")
	m := flag.Float64("m", 0.9, "momentum")
	etaLambda := flag.Float64("etalambda", 0.01, "normalized rate ηλ")
	delay := flag.Int("delay", 1, "gradient delay")
	flag.Parse()

	var meth quadratic.Method
	switch *method {
	case "gdm":
		meth = quadratic.GDM
	case "nesterov":
		meth = quadratic.Nesterov
	case "scd":
		meth = quadratic.SCD(1)
	case "lwpd":
		meth = quadratic.LWPD(1)
	case "combined":
		meth = quadratic.Combined(1, 1)
	default:
		if *method != "" {
			fmt.Fprintf(os.Stderr, "unknown method %q\n", *method)
		}
		fmt.Fprintln(os.Stderr, "usage: quadratic -method gdm|nesterov|scd|lwpd|combined [-m M] [-etalambda ηλ] [-delay D]")
		os.Exit(2)
	}
	r := quadratic.RMax(meth, *m, *etaLambda, *delay)
	fmt.Printf("%s: m=%g ηλ=%g D=%d → |r_max| = %.6f, half-life = %.4g steps\n",
		meth.Name(), *m, *etaLambda, *delay, r, quadratic.Halflife(r))
	// Cross-check with the time-domain simulation.
	traj := quadratic.SimulateMethod(meth, *m, *etaLambda, *delay, 4000)
	fmt.Printf("time-domain estimate: %.6f\n", quadratic.EstimateRate(traj))
}
