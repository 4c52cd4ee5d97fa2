package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// cpuStat is the machine-wide CPU time split of /proc/stat's "cpu" line,
// in clock ticks summed over every CPU.
type cpuStat struct {
	total, steal int64
}

// readCPUStat returns the current split, or the zero value where
// /proc/stat cannot be read (no steal is then ever seen).
func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	var s cpuStat
	for i, v := range fields[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// stolenSince is the share of the CPUs' time since s0 that the
// hypervisor gave to other guests: this virtual machine did not run at
// all for it, so neither did the program.
func (s cpuStat) stolenSince(s0 cpuStat) float64 {
	if s.total <= s0.total {
		return 0
	}
	return float64(s.steal-s0.steal) / float64(s.total-s0.total)
}
