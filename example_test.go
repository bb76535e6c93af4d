package relidev_test

import (
	"context"
	"fmt"
	"log"

	"relidev"
)

// Example shows the minimal lifecycle: build a replicated device, write
// through it, survive a crash, recover.
func Example() {
	ctx := context.Background()
	cluster, err := relidev.New(3, relidev.NaiveAvailableCopy,
		relidev.WithGeometry(relidev.Geometry{BlockSize: 64, NumBlocks: 16}))
	if err != nil {
		log.Fatal(err)
	}
	dev, err := cluster.Device(0)
	if err != nil {
		log.Fatal(err)
	}
	payload := make([]byte, 64)
	copy(payload, "hello")
	if err := dev.WriteBlock(ctx, 3, payload); err != nil {
		log.Fatal(err)
	}

	cluster.Fail(2) // fail-stop crash
	data, err := dev.ReadBlock(ctx, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read with a site down: %s\n", data[:5])

	if err := cluster.Restart(ctx, 2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("available sites: %d\n", cluster.AvailableSites())
	// Output:
	// read with a site down: hello
	// available sites: 3
}

// ExampleAvailability evaluates the §4 closed forms: two naive available
// copies match three voting copies exactly.
func ExampleAvailability() {
	na2, _ := relidev.Availability(relidev.NaiveAvailableCopy, 2, 0.05)
	v3, _ := relidev.Availability(relidev.Voting, 3, 0.05)
	fmt.Printf("A_NA(2) = %.6f\n", na2)
	fmt.Printf("A_V(3)  = %.6f\n", v3)
	// Output:
	// A_NA(2) = 0.993413
	// A_V(3)  = 0.993413
}

// ExampleTrafficCosts prints the §5 multicast cost model for five sites.
func ExampleTrafficCosts() {
	for _, s := range []relidev.Scheme{relidev.Voting, relidev.AvailableCopy, relidev.NaiveAvailableCopy} {
		c, _ := relidev.TrafficCosts(s, 5, 0, true)
		fmt.Printf("%-15v write=%.0f read=%.0f recovery=%.0f\n", s, c.Write, c.Read, c.Recovery)
	}
	// Output:
	// voting          write=6 read=5 recovery=0
	// available-copy  write=5 read=0 recovery=7
	// naive           write=1 read=0 recovery=7
}

// ExampleCluster_Traffic shows the §5 headline measured live: a naive
// available copy write costs exactly one multicast transmission.
func ExampleCluster_Traffic() {
	ctx := context.Background()
	cluster, _ := relidev.New(5, relidev.NaiveAvailableCopy,
		relidev.WithGeometry(relidev.Geometry{BlockSize: 64, NumBlocks: 16}))
	dev, _ := cluster.Device(0)
	payload := make([]byte, 64)

	cluster.ResetTraffic()
	dev.WriteBlock(ctx, 0, payload)
	dev.ReadBlock(ctx, 0)
	st := cluster.Traffic()
	fmt.Printf("one write + one read: %d transmissions\n", st.Transmissions)
	// Output:
	// one write + one read: 1 transmissions
}
