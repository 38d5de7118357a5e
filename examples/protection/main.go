// Protection: an error-protection design study of the kind the paper's
// introduction motivates ("measure the benefits of different error
// protection techniques against the overheads they incur on an initially
// unprotected design"). Runs the same campaigns on an unprotected RTX 2060
// and on one with SEC-DED ECC, for single- and triple-bit faults.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"gpufi"
	"gpufi/internal/report"
)

func main() {
	var (
		appName = flag.String("app", "SP", "benchmark to evaluate")
		runs    = flag.Int("n", 120, "injections per campaign point")
		seed    = flag.Int64("seed", 1, "campaign seed")
	)
	flag.Parse()

	app, err := gpufi.AppByName(*appName)
	if err != nil {
		log.Fatal(err)
	}

	tb := &report.Table{
		Title: fmt.Sprintf("SEC-DED protection study: %s register file on RTX 2060 (%d runs/point)",
			app.Name, *runs),
		Header: []string{"config", "bits", "Masked", "SDC", "Crash", "Timeout", "FR (Eq.1)"},
	}
	for _, ecc := range []bool{false, true} {
		for _, bits := range []int{1, 3} {
			gpu := gpufi.RTX2060()
			gpu.ECC = ecc
			prof, err := gpufi.Profile(nil, app, gpu)
			if err != nil {
				log.Fatal(err)
			}
			var total gpufi.Counts
			for _, k := range prof.KernelOrder {
				res, err := gpufi.NewCampaign(
					gpufi.WithTarget(app, gpu, k, gpufi.StructRegFile),
					gpufi.WithRuns(*runs),
					gpufi.WithBits(bits),
					gpufi.WithSeed(*seed),
					gpufi.WithProfile(prof),
				).Run(context.Background())
				if err != nil {
					log.Fatal(err)
				}
				total.Merge(res.Counts)
			}
			name := "unprotected"
			if ecc {
				name = "SEC-DED ECC"
			}
			tb.AddRow(name, fmt.Sprint(bits),
				fmt.Sprint(total.Masked), fmt.Sprint(total.SDC),
				fmt.Sprint(total.Crash), fmt.Sprint(total.Timeout),
				fmt.Sprintf("%.3f", total.FailureRatio()))
		}
	}
	if err := tb.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nExpected: ECC eliminates single-bit failures entirely; multi-bit faults")
	fmt.Println("split into corrected bits, detected-uncorrectable aborts (Crash), and")
	fmt.Println("rare triple-bit-in-one-word silent escapes.")
}
