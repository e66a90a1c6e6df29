package client

import "bufferkit/internal/api"

// The wire types of bufferkitd's JSON API. Each is declared once, in
// internal/api, and shared with the server; see that package for the
// field documentation.
type (
	SolveOptions   = api.SolveOptions
	SolveRequest   = api.SolveRequest
	SolveResult    = api.SolveResult
	Placement      = api.Placement
	FrontierPoint  = api.FrontierPoint
	BatchRequest   = api.BatchRequest
	BatchLine      = api.BatchLine
	ChipRequest    = api.ChipRequest
	ChipRound      = api.ChipRound
	ChipSummary    = api.ChipSummary
	ChipLine       = api.ChipLine
	YieldRequest   = api.YieldRequest
	YieldResult    = api.YieldResult
	YieldPlacement = api.YieldPlacement
	SessionPatch   = api.SessionPatch
	SessionRequest = api.SessionRequest
	SessionInfo    = api.SessionInfo
	SessionResult  = api.SessionResult
	PeerStatus     = api.PeerStatus
	FleetInfo      = api.FleetInfo
)
