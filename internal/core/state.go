package core

import (
	"encoding/json"
	"fmt"

	"memscale/internal/config"
	"memscale/internal/sim"
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
	return p.loadState(st)
}

func (p *Policy) loadState(st PolicyState) error {
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

// AblatedPolicyState wraps the base policy state with the stale-profile
// ablation's remembered epoch.
type AblatedPolicyState struct {
	Policy    PolicyState  `json:"policy"`
	LastEpoch *sim.Profile `json:"last_epoch,omitempty"`
}

// SaveGovernorState implements sim.StatefulGovernor.
func (a *AblatedPolicy) SaveGovernorState() (any, error) {
	base, err := a.Policy.SaveGovernorState()
	if err != nil {
		return nil, err
	}
	return AblatedPolicyState{Policy: base.(PolicyState), LastEpoch: a.lastEpoch}, nil
}

// LoadGovernorState implements sim.StatefulGovernor.
func (a *AblatedPolicy) LoadGovernorState(data []byte) error {
	var st AblatedPolicyState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: ablated policy state: %w", err)
	}
	if err := a.Policy.loadState(st.Policy); err != nil {
		return err
	}
	a.lastEpoch = st.LastEpoch
	return nil
}

// PerChannelPolicyState is the pure-data image of the per-channel
// governor.
type PerChannelPolicyState struct {
	Gamma     float64          `json:"gamma"`
	Slack     []config.Time    `json:"slack"`
	Decisions int              `json:"decisions"`
	XiBank    []float64        `json:"xi_bank,omitempty"`
	XiBus     []float64        `json:"xi_bus,omitempty"`
	TDevice   []config.Time    `json:"t_device,omitempty"`
	FitFreq   []config.FreqMHz `json:"fit_freq,omitempty"`
	AlphaCh   [][]float64      `json:"alpha_ch,omitempty"`
	TPICpu    []float64        `json:"tpi_cpu,omitempty"`
	CPIObs    []float64        `json:"cpi_obs,omitempty"`
}

// SaveGovernorState implements sim.StatefulGovernor.
func (p *PerChannelPolicy) SaveGovernorState() (any, error) {
	m := p.model
	alpha := make([][]float64, len(m.AlphaCh))
	for i, row := range m.AlphaCh {
		alpha[i] = append([]float64(nil), row...)
	}
	return PerChannelPolicyState{
		Gamma:     p.gamma,
		Slack:     append([]config.Time(nil), p.slack...),
		Decisions: p.decisions,
		XiBank:    append([]float64(nil), m.XiBank...),
		XiBus:     append([]float64(nil), m.XiBus...),
		TDevice:   append([]config.Time(nil), m.TDevice...),
		FitFreq:   append([]config.FreqMHz(nil), m.FitFreq...),
		AlphaCh:   alpha,
		TPICpu:    append([]float64(nil), m.TPICpu...),
		CPIObs:    append([]float64(nil), m.CPIObs...),
	}, nil
}

// LoadGovernorState implements sim.StatefulGovernor.
func (p *PerChannelPolicy) LoadGovernorState(data []byte) error {
	var st PerChannelPolicyState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: per-channel policy state: %w", err)
	}
	if len(st.Slack) != len(p.slack) {
		return fmt.Errorf("core: per-channel state has %d cores of slack, policy has %d", len(st.Slack), len(p.slack))
	}
	p.gamma = st.Gamma
	copy(p.slack, st.Slack)
	p.decisions = st.Decisions
	m := p.model
	m.XiBank = append(m.XiBank[:0], st.XiBank...)
	m.XiBus = append(m.XiBus[:0], st.XiBus...)
	m.TDevice = append(m.TDevice[:0], st.TDevice...)
	m.FitFreq = append(m.FitFreq[:0], st.FitFreq...)
	m.AlphaCh = m.AlphaCh[:0]
	for _, row := range st.AlphaCh {
		m.AlphaCh = append(m.AlphaCh, append([]float64(nil), row...))
	}
	m.TPICpu = append(m.TPICpu[:0], st.TPICpu...)
	m.CPIObs = append(m.CPIObs[:0], st.CPIObs...)
	return nil
}
