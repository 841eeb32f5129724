// Live cluster demo: four real Sync nodes over UDP loopback, in real time.
// Each node starts with a deliberately wrong clock (up to ±150 ms) and a
// synthetic drift; within a few sync rounds their disciplined clocks agree
// to within a few milliseconds. Messages are HMAC-authenticated.
package main

import (
	"fmt"
	"log"
	"time"

	"clocksync"
)

func main() {
	cluster, err := clocksync.NewCluster(clocksync.ClusterConfig{
		N:       4,
		F:       1,
		SyncInt: 500 * time.Millisecond,
		MaxWait: 200 * time.Millisecond,
		WayOff:  2 * time.Second,
		Key:     []byte("livecluster-demo-key"),
		Offsets: []time.Duration{
			-150 * time.Millisecond,
			60 * time.Millisecond,
			0,
			120 * time.Millisecond,
		},
		DriftPPM: []float64{200, -150, 50, -80},
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	fmt.Println("Live UDP cluster: 4 nodes, f=1, HMAC-authenticated, SyncInt=500ms")
	fmt.Println("offsets from host clock (ms):")
	fmt.Printf("%8s  %8s %8s %8s %8s %10s\n", "t", "node0", "node1", "node2", "node3", "spread")
	start := time.Now()
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for i := 0; i < 12; i++ {
		<-ticker.C
		nodes := cluster.Nodes()
		fmt.Printf("%7.1fs  %8.2f %8.2f %8.2f %8.2f %9.2fms\n",
			time.Since(start).Seconds(),
			ms(nodes[0].Offset()), ms(nodes[1].Offset()),
			ms(nodes[2].Offset()), ms(nodes[3].Offset()),
			ms(cluster.Spread()))
	}

	final := cluster.Spread()
	fmt.Printf("\nfinal spread: %.2f ms ", ms(final))
	if final < 25*time.Millisecond {
		fmt.Println("— converged ✓")
	} else {
		fmt.Println("— still settling (loopback jitter); rerun for longer")
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
