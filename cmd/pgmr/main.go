// Command pgmr builds a PolygraphMR system for one benchmark and classifies
// images from the held-out synthetic test split, printing a per-image
// verdict and a summary of the reliability gate's effect.
//
// Usage:
//
//	pgmr -benchmark convnet -n 200
//	pgmr -benchmark alexnet -members 6 -gpus 2 -bits 14 -v
//	pgmr -benchmark convnet -n 500 -batch 32 -workers 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
)

func main() {
	benchmark := flag.String("benchmark", "convnet", "benchmark name: "+strings.Join(polygraph.BenchmarkNames(), ", "))
	members := flag.Int("members", 4, "number of member networks (2-8)")
	n := flag.Int("n", 100, "number of test images to classify")
	gpus := flag.Int("gpus", 1, "concurrent member executions (models GPU count)")
	bits := flag.Int("bits", 0, "RAMR precision bits (0 = full precision)")
	noStage := flag.Bool("no-stage", false, "disable RADE staged activation")
	workers := flag.Int("workers", 0, "members run concurrently per stage (0 = NumCPU)")
	batch := flag.Int("batch", 0, "classify images in batches of this size (throughput mode; 0 = one at a time)")
	verbose := flag.Bool("v", false, "print one line per image")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pgmr: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	sys, err := polygraph.Build(*benchmark, polygraph.Options{
		Members:       *members,
		GPUs:          *gpus,
		PrecisionBits: *bits,
		DisableStaged: *noStage,
		Workers:       *workers,
		Progress:      func(f string, a ...any) { fmt.Fprintf(os.Stderr, "# "+f+"\n", a...) },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgmr:", err)
		os.Exit(1)
	}
	conf, freq := sys.Thresholds()
	fmt.Printf("system: %s members=[%s] Thr_Conf=%.2f Thr_Freq=%d\n",
		*benchmark, strings.Join(sys.Members(), ", "), conf, freq)

	images, labels, err := polygraph.TestImages(*benchmark, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgmr:", err)
		os.Exit(1)
	}

	start := time.Now()
	preds, err := classifyAll(sys, images, *batch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgmr:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	var tp, fp, tn, fn, activations int
	for i, pred := range preds {
		activations += pred.Activated
		correct := pred.Label == labels[i]
		switch {
		case pred.Reliable && correct:
			tp++
		case pred.Reliable && !correct:
			fp++
		case !pred.Reliable && !correct:
			tn++
		default:
			fn++
		}
		if *verbose {
			verdict := "UNRELIABLE"
			if pred.Reliable {
				verdict = "reliable"
			}
			mark := " "
			if !correct {
				mark = "x"
			}
			fmt.Printf("img %4d: pred=%3d true=%3d %s conf=%.2f nets=%d %s\n",
				i, pred.Label, labels[i], mark, pred.Confidence, pred.Activated, verdict)
		}
	}
	total := float64(len(images))
	fmt.Printf("\nclassified %d images:\n", len(images))
	fmt.Printf("  reliable & correct (TP):   %4d (%.1f%%)\n", tp, 100*float64(tp)/total)
	fmt.Printf("  reliable & wrong   (FP):   %4d (%.1f%%)  <- undetected mispredictions\n", fp, 100*float64(fp)/total)
	fmt.Printf("  flagged  & wrong   (TN):   %4d (%.1f%%)  <- caught by PolygraphMR\n", tn, 100*float64(tn)/total)
	fmt.Printf("  flagged  & correct (FN):   %4d (%.1f%%)\n", fn, 100*float64(fn)/total)
	fmt.Printf("  mean networks activated:   %.2f of %d\n", float64(activations)/total, *members)
	fmt.Printf("  throughput:                %.1f img/s (%s total)\n",
		total/elapsed.Seconds(), elapsed.Round(time.Millisecond))
}

// classifyAll runs the whole test set through the system: one Classify per
// image by default, or ClassifyBatch over batchSize-image chunks when the
// throughput mode is requested. Predictions are identical either way.
func classifyAll(sys *polygraph.System, images []polygraph.Image, batchSize int) ([]polygraph.Prediction, error) {
	if batchSize <= 1 {
		preds := make([]polygraph.Prediction, len(images))
		for i, im := range images {
			p, err := sys.Classify(im)
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		return preds, nil
	}
	preds := make([]polygraph.Prediction, 0, len(images))
	for lo := 0; lo < len(images); lo += batchSize {
		hi := lo + batchSize
		if hi > len(images) {
			hi = len(images)
		}
		ps, err := sys.ClassifyBatch(images[lo:hi])
		if err != nil {
			return nil, err
		}
		preds = append(preds, ps...)
	}
	return preds, nil
}
