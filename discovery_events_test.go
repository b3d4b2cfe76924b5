package mcorr

import (
	"testing"
	"time"

	"mcorr/internal/discover"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// TestDiscoveryEventsKeepTheNewest steps a discovery fleet's round end
// past the event buffer's cap without draining: it keeps exactly the
// newest maxDiscoveryEvents events, in order, and counts the rest.
func TestDiscoveryEventsKeepTheNewest(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{Name: "E", Machines: 2, Days: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDiscoveryFleet(ds.Slice(timeseries.MonitoringStart, timeseries.MonitoringStart.AddDate(0, 0, 1)), ManagerConfig{}, DiscoveryConfig{Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const extra = 5
	dropped := obsDiscoverEventsDropped.Value()
	for r := 1; r <= maxDiscoveryEvents+extra; r++ {
		d.apply(time.Time{}, discover.Changes{Round: uint64(r)})
	}
	if got := obsDiscoverEventsDropped.Value() - dropped; got != extra {
		t.Errorf("dropped %d events, want %d", got, extra)
	}
	events := d.DrainDiscoveryEvents()
	if len(events) != maxDiscoveryEvents {
		t.Fatalf("kept %d events, want %d", len(events), maxDiscoveryEvents)
	}
	for i, ev := range events {
		if want := uint64(extra + 1 + i); ev.Round != want {
			t.Fatalf("event %d is round %d, want %d", i, ev.Round, want)
		}
	}
	d.apply(time.Time{}, discover.Changes{Round: maxDiscoveryEvents + extra + 1})
	if events := d.DrainDiscoveryEvents(); len(events) != 1 || obsDiscoverEventsDropped.Value()-dropped != extra {
		t.Errorf("after a drain: %d events and %d dropped, want 1 and %d", len(events), obsDiscoverEventsDropped.Value()-dropped, extra)
	}
}
