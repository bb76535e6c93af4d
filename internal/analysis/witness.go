package analysis

import (
	"fmt"
	"math"
)

// AvailabilityVotingWitnesses returns the steady-state availability of a
// voting system with `data` full copies and `witnesses` witness sites
// ([10]: witnesses vote with version numbers but store no data).
//
// The block is accessible when (a) the up sites hold a strict weight
// majority — all sites weigh one vote, with the §4.1 ε-nudge on the
// first data site when the total is even — and (b) at least one *data*
// site is up to supply the block contents. (b) is the approximation that
// data sites reachable together with a quorum hold current data, which
// a write that pushes its data to every quorum member maintains; in the
// rare residual case a witness protocol must refuse the read. This is
// analysis only: no replica in this tree runs as a witness.
//
// The result is computed by exact enumeration over the 2^(data+witnesses)
// up/down configurations, each weighted by its stationary probability.
func AvailabilityVotingWitnesses(data, witnesses int, rho float64) (float64, error) {
	n := data + witnesses
	if data < 1 {
		return 0, fmt.Errorf("analysis: witness system needs at least one data site, got %d", data)
	}
	if witnesses < 0 {
		return 0, fmt.Errorf("analysis: negative witness count %d", witnesses)
	}
	if n > 20 {
		return 0, fmt.Errorf("analysis: %d sites exceeds the enumeration limit of 20", n)
	}
	if err := checkRho(rho); err != nil {
		return 0, err
	}
	if rho == 0 {
		return 1, nil
	}
	p := 1 / (1 + rho) // a site is up with probability p
	q := 1 - p

	// Weights in thousandths; ε-nudge the first site for even totals.
	weights := make([]int64, n)
	var total int64
	for i := range weights {
		weights[i] = 1000
	}
	if n%2 == 0 {
		weights[0]++
	}
	for _, w := range weights {
		total += w
	}
	threshold := total / 2

	var avail float64
	for mask := 0; mask < 1<<n; mask++ {
		var weight int64
		ups := 0
		dataUp := false
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			ups++
			weight += weights[i]
			if i < data {
				dataUp = true
			}
		}
		if weight <= threshold || !dataUp {
			continue
		}
		avail += math.Pow(p, float64(ups)) * math.Pow(q, float64(n-ups))
	}
	return clampProb(avail), nil
}

// WitnessStorageBlocks returns the number of block-sized units of stable
// storage each configuration needs: full copies store every block;
// witnesses store only an 8-byte version per block, which rounds to
// versionOverhead blocks for a device of numBlocks blocks of blockSize
// bytes.
func WitnessStorageBlocks(data, witnesses, numBlocks, blockSize int) (float64, error) {
	if data < 1 || witnesses < 0 || numBlocks < 1 || blockSize < 8 {
		return 0, fmt.Errorf("analysis: invalid storage parameters (%d, %d, %d, %d)",
			data, witnesses, numBlocks, blockSize)
	}
	versionTable := float64(8*numBlocks) / float64(blockSize)
	return float64(data*numBlocks) + float64(witnesses)*versionTable, nil
}
