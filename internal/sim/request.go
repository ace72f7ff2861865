package sim

import "treadmill/internal/anatomy"

// Request is one simulated RPC with the full set of measurement-point
// timestamps. The different "tools" in the paper disagree exactly because
// they read different pairs of these timestamps:
//
//   - a load tester measures ClientDone − Created (user space to user
//     space, including any client-side queueing),
//   - tcpdump measures RespAtClientNIC − ReqAtClientNIC (the wire view,
//     paper §III-C).
//
// A Client recycles the records of the requests it issues: the *Request its
// OnComplete receives is valid until that callback returns, after which the
// client overwrites it with a later request. Copy the struct (cp := *r) to
// keep one. Cluster.Release recycles them across clusters too: it zeroes
// every record its clients created, in flight or not, and a later cluster's
// clients issue on them. A Request the caller builds and hands to the server
// is the caller's, and is never recycled.
type Request struct {
	ID uint64
	// ConnID identifies the connection; RSS hashing and NUMA buffer
	// placement key off it.
	ConnID int
	// SizeReq / SizeResp are wire sizes in bytes.
	SizeReq, SizeResp int

	// Created is when the load generator decided to issue the request
	// (the open-loop intended send instant).
	Created float64
	// ReqAtClientNIC is when the request packet left the client NIC —
	// the client-side tcpdump request timestamp.
	ReqAtClientNIC float64
	// ArriveServer is when the packet reached the server NIC.
	ArriveServer float64
	// ServiceStart is when a server worker began user-space processing.
	ServiceStart float64
	// ServerDone is when the server finished and handed the response to
	// its NIC.
	ServerDone float64
	// RespAtClientNIC is when the response packet reached the client NIC —
	// the client-side tcpdump response timestamp.
	RespAtClientNIC float64
	// ClientDone is when the load tester's user-space callback observed
	// the response (after kernel interrupt handling and any client-side
	// queueing/batching).
	ClientDone float64

	// Phases is the mechanistic decomposition of the measured latency:
	// every span of [Created, ClientDone] is attributed to exactly one
	// phase as the request moves through the simulated stack, so
	// Phases.Sum() == MeasuredLatency() for completed requests (enforced by
	// TestPhaseSumInvariant).
	Phases anatomy.Vec

	// Scratch the request path keeps between hops, so no hop needs a
	// closure: the Request is the only object a simulated request needs.
	// Each field is written by one hop and read by a later one (DESIGN.md
	// has the table).

	// owner is resumed at opServerDone when the response is ready to leave
	// the server, and owns the client-side ops: the issuing Client, or the
	// respond func handed to Server.Arrive.
	owner handler
	// core is the server core the request is queued or running on (its
	// prof is the execution profile the next hop accounts); worker is the
	// connection's worker core, resolved at arrival.
	core, worker *Core
	// userCycles and numaCycles are the sampled service demand and the
	// memory-placement penalty of the user-space stage.
	userCycles, numaCycles float64
	// closed marks a closed-loop request: its completion triggers the next
	// send on the same connection after think seconds.
	closed bool
	think  float64
}

// MeasuredLatency is what the load tester reports: user-space round trip
// from intended send to callback execution.
func (r *Request) MeasuredLatency() float64 { return r.ClientDone - r.Created }

// WireLatency is what tcpdump on the client reports: NIC out to NIC in.
func (r *Request) WireLatency() float64 { return r.RespAtClientNIC - r.ReqAtClientNIC }

// ServerLatency is time spent on the server (queueing + service).
func (r *Request) ServerLatency() float64 { return r.ServerDone - r.ArriveServer }

// NetworkLatency is round-trip time on the wire excluding the server.
func (r *Request) NetworkLatency() float64 { return r.WireLatency() - r.ServerLatency() }

// ClientLatency is the part of the measured latency spent on the client
// itself (send-side queueing before the NIC plus receive-side kernel and
// callback handling).
func (r *Request) ClientLatency() float64 { return r.MeasuredLatency() - r.WireLatency() }
