package sim

import (
	"fmt"
	"math"
)

// Link is a unidirectional network path with a FIFO serialization queue
// (bandwidth) and a fixed propagation delay. Client→server and
// server→client directions are separate Links, and the client-side
// "network latency grows with utilization" effect in the paper's Fig. 3
// falls out of the serialization queue.
type Link struct {
	eng *Engine
	// BandwidthBps is the line rate in bits per second.
	BandwidthBps float64
	// PropDelay is the one-way propagation + switching delay in seconds.
	// Cross-rack paths get a larger value (paper Fig. 2).
	PropDelay float64

	// freeAt is when the transmitter finishes the current backlog.
	freeAt  float64
	busySum float64
	sent    uint64
}

// NewLink validates and returns a Link.
func NewLink(eng *Engine, bandwidthBps, propDelay float64) (*Link, error) {
	if bandwidthBps <= 0 || math.IsNaN(bandwidthBps) {
		return nil, fmt.Errorf("sim: bandwidth %g must be positive", bandwidthBps)
	}
	if propDelay < 0 || math.IsNaN(propDelay) {
		return nil, fmt.Errorf("sim: propagation delay %g must be >= 0", propDelay)
	}
	return &Link{eng: eng, BandwidthBps: bandwidthBps, PropDelay: propDelay}, nil
}

// transmit books a packet onto the transmitter and returns its decomposed
// network time plus the instant it reaches the far end. Everything about a
// packet's journey is decided the moment it is sent (the queue is FIFO and
// nothing overtakes), so the caller schedules the delivery itself, as a
// typed continuation.
func (l *Link) transmit(sizeBytes int) (queueWait, transit, arrival float64) {
	if sizeBytes <= 0 {
		panic(fmt.Sprintf("sim: packet size %d must be positive", sizeBytes))
	}
	now := l.eng.Now()
	start := math.Max(now, l.freeAt)
	queueWait = start - now
	txTime := float64(sizeBytes*8) / l.BandwidthBps
	l.freeAt = start + txTime
	l.busySum += txTime
	l.sent++
	transit = txTime + l.PropDelay
	return queueWait, transit, l.freeAt + l.PropDelay
}

// Utilization returns the fraction of time the transmitter was busy.
func (l *Link) Utilization() float64 {
	if l.eng.Now() == 0 {
		return 0
	}
	u := l.busySum / l.eng.Now()
	if u > 1 {
		u = 1
	}
	return u
}

// Sent returns the number of packets transmitted.
func (l *Link) Sent() uint64 { return l.sent }

// QueueDelay returns the current backlog delay a new packet would see.
func (l *Link) QueueDelay() float64 {
	d := l.freeAt - l.eng.Now()
	if d < 0 {
		return 0
	}
	return d
}
