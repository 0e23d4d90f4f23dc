package core

import (
	"encoding/json"
	"fmt"

	"memscale/internal/config"
)

// This file implements sim.StatefulGovernor for the package's
// governors: the slack ledger, fitted performance model, and decision
// diagnostics are the only mutable state — configuration, timing
// tables, and the power model are rebuilt from the Config on restore.

// PerfModelState is the pure-data image of a fitted PerfModel.
type PerfModelState struct {
	XiBank  float64        `json:"xi_bank"`
	XiBus   float64        `json:"xi_bus"`
	TDevice config.Time    `json:"t_device"`
	FitFreq config.FreqMHz `json:"fit_freq"`
	Alpha   []float64      `json:"alpha,omitempty"`
	TPICpu  []float64      `json:"tpi_cpu,omitempty"`
	CPIObs  []float64      `json:"cpi_obs,omitempty"`
}

// Save captures the model's fitted quantities.
func (m *PerfModel) Save() PerfModelState {
	return PerfModelState{
		XiBank:  m.XiBank,
		XiBus:   m.XiBus,
		TDevice: m.TDevice,
		FitFreq: m.FitFreq,
		Alpha:   append([]float64(nil), m.Alpha...),
		TPICpu:  append([]float64(nil), m.TPICpu...),
		CPIObs:  append([]float64(nil), m.CPIObs...),
	}
}

// Load replaces the model's fitted quantities.
func (m *PerfModel) Load(st PerfModelState) {
	m.XiBank = st.XiBank
	m.XiBus = st.XiBus
	m.TDevice = st.TDevice
	m.FitFreq = st.FitFreq
	m.Alpha = append(m.Alpha[:0], st.Alpha...)
	m.TPICpu = append(m.TPICpu[:0], st.TPICpu...)
	m.CPIObs = append(m.CPIObs[:0], st.CPIObs...)
}

// PolicyState is the pure-data image of the MemScale governor.
type PolicyState struct {
	Gamma      float64                `json:"gamma"`
	Slack      []config.Time          `json:"slack"`
	Chosen     config.FreqMHz         `json:"chosen"`
	Decisions  int                    `json:"decisions"`
	TimeAtFreq map[config.FreqMHz]int `json:"time_at_freq,omitempty"`
	Model      PerfModelState         `json:"model"`
}

// SaveGovernorState implements sim.StatefulGovernor.
func (p *Policy) SaveGovernorState() (any, error) {
	tf := make(map[config.FreqMHz]int, len(p.timeAtFreq))
	for f, n := range p.timeAtFreq {
		tf[f] = n
	}
	return PolicyState{
		Gamma:      p.gamma,
		Slack:      append([]config.Time(nil), p.slack...),
		Chosen:     p.chosen,
		Decisions:  p.decisions,
		TimeAtFreq: tf,
		Model:      p.model.Save(),
	}, nil
}

// LoadGovernorState implements sim.StatefulGovernor.
func (p *Policy) LoadGovernorState(data []byte) error {
	var st PolicyState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: policy state: %w", err)
	}
	if len(st.Slack) != len(p.slack) {
		return fmt.Errorf("core: policy state has %d cores of slack, policy has %d", len(st.Slack), len(p.slack))
	}
	p.gamma = st.Gamma
	copy(p.slack, st.Slack)
	p.chosen = st.Chosen
	p.decisions = st.Decisions
	p.timeAtFreq = make(map[config.FreqMHz]int, len(st.TimeAtFreq))
	for f, n := range st.TimeAtFreq {
		p.timeAtFreq[f] = n
	}
	p.model.Load(st.Model)
	return nil
}
