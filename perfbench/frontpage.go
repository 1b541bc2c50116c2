package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"safeweb/internal/maindb"
	"safeweb/internal/mdt"
	"safeweb/internal/taint"
	"safeweb/internal/webfront"
)

const (
	// frontPatients and frontRegistrySeed are cmd/mdt-portal's registry
	// defaults: every run serves the same portal, and --seed draws the
	// request mix.
	frontPatients     = 500
	frontRegistrySeed = 2026
	// frontRate keeps the one serial connection under half busy, so that
	// latency reads service time rather than queueing on it.
	frontRate = 150 // requests per second
)

// Request kinds of the frontpage mix.
const (
	reqFront = iota
	reqRecords
	reqDetail
	reqCompare
	reqCross // another MDT's records: must be refused
)

// frontReq is one seeded request: the account it runs as, its path and
// what it may return.
type frontReq struct {
	user string
	kind int
	path string
}

// account is one provisioned MDT login with its session cookie.
type account struct {
	m      maindb.MDT
	cookie string
	own    map[string]bool // patient ids the MDT may see
	pids   []string        // patients with a record on the DMZ replica
}

type frontpage struct {
	d        *mdt.Deployment
	addr     string
	client   *http.Client
	accounts map[string]*account
	users    []string
	foreign  map[string]bool // every registry patient id
	log      *opLog

	tracing  atomic.Bool
	phasesMu sync.Mutex
	phases   []webfront.PhaseTimes
}

// patientIDs matches every id the registry issues: "%08d" of numbers
// from 30000000 up to about 130000000, so eight or nine digits.
var patientIDs = regexp.MustCompile(`\b\d{8,9}\b`)

func newFrontpage(patients, n int) (*frontpage, error) {
	f := &frontpage{log: newOpLog(n), accounts: make(map[string]*account), foreign: make(map[string]bool)}
	d, err := mdt.Deploy(mdt.DeployConfig{
		Registry:  maindb.Config{Seed: frontRegistrySeed, Patients: patients},
		OnRequest: f.observe,
	})
	if err != nil {
		return nil, err
	}
	f.d = d
	if err := d.ImportAll(); err != nil {
		f.close()
		return nil, err
	}
	if f.addr, err = d.ServeHTTP("127.0.0.1:0"); err != nil {
		f.close()
		return nil, err
	}
	// One keep-alive loopback connection carries every request.
	f.client = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	for _, p := range d.Registry.Patients() {
		f.foreign[p.ID] = true
	}
	for _, m := range d.Registry.MDTs() {
		a := &account{m: m, own: make(map[string]bool)}
		for _, p := range d.Registry.PatientsByMDT(m.ID) {
			a.own[p.ID] = true
		}
		docs, err := d.DMZDB.Query(mdt.ViewRecordsByMDT, m.ID)
		if err != nil {
			f.close()
			return nil, err
		}
		for _, doc := range docs {
			a.pids = append(a.pids, doc.ID[strings.LastIndexByte(doc.ID, '/')+1:])
		}
		if a.cookie, err = f.login(m.ID, d.Creds[m.ID]); err != nil {
			f.close()
			return nil, err
		}
		f.accounts[m.ID] = a
		f.users = append(f.users, m.ID)
	}
	return f, nil
}

// login opens a cookie session for a portal account.
func (f *frontpage) login(user, password string) (string, error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+f.addr+"/session", nil)
	if err != nil {
		return "", err
	}
	req.SetBasicAuth(user, password)
	resp, err := f.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // keep the connection reusable
	for _, c := range resp.Cookies() {
		if c.Name == webfront.SessionCookie {
			return c.Value, nil
		}
	}
	return "", fmt.Errorf("login %s: status %d, no session cookie", user, resp.StatusCode)
}

func (f *frontpage) observe(p webfront.PhaseTimes) {
	if f.tracing.Load() {
		f.phasesMu.Lock()
		f.phases = append(f.phases, p)
		f.phasesMu.Unlock()
	}
}

func (f *frontpage) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	f.d.Stop()
}

// mixBlock is the request mix per forty requests, by kind: the four own
// kinds the workload names in even shares, and a tenth cross-MDT
// requests. No measured traffic of the portal exists to weight them by.
var mixBlock = [...]int{reqFront: 9, reqRecords: 9, reqDetail: 9, reqCompare: 9, reqCross: 4}

// mix draws the seeded request sequence. The requests go round the
// provisioned accounts in turn, and every forty requests of an account
// hold mixBlock's kinds in seeded order, so that seeds differ in order
// and targets but not in how much work a run holds.
func (f *frontpage) mix(seed int64, n int) []frontReq {
	rnd := rand.New(rand.NewSource(seed))
	var block []int
	for k, count := range mixBlock {
		for j := 0; j < count; j++ {
			block = append(block, k)
		}
	}
	kinds := make([][]int, len(f.users)) // per account
	for u := range kinds {
		kinds[u] = append([]int(nil), block...)
	}
	reqs := make([]frontReq, n)
	for i := range reqs {
		u, j := i%len(f.users), i/len(f.users)%len(block)
		if j == 0 {
			rnd.Shuffle(len(block), func(x, y int) { kinds[u][x], kinds[u][y] = kinds[u][y], kinds[u][x] })
		}
		a := f.accounts[f.users[u]]
		r := frontReq{user: a.m.ID, kind: kinds[u][j]}
		if r.kind == reqDetail && len(a.pids) == 0 {
			r.kind = reqRecords
		}
		switch r.kind {
		case reqFront:
			r.path = "/"
		case reqRecords:
			r.path = "/records/" + a.m.ID
		case reqDetail:
			r.path = "/records/" + a.m.ID + "/" + a.pids[rnd.Intn(len(a.pids))]
		case reqCompare:
			r.path = "/compare/" + a.m.Region
		case reqCross:
			o := f.accounts[f.users[rnd.Intn(len(f.users))]]
			for o.m.ID == a.m.ID {
				o = f.accounts[f.users[rnd.Intn(len(f.users))]]
			}
			r.path = "/records/" + o.m.ID
			if len(o.pids) > 0 && rnd.Intn(2) == 0 {
				r.path += "/" + o.pids[rnd.Intn(len(o.pids))]
			}
		}
		reqs[i] = r
	}
	return reqs
}

// outcome classifies one response.
type outcome struct{ failed, leaked bool }

// judge checks a response against what the request may return: own
// requests answer 200, cross-MDT requests are refused, and no body names
// a patient of an MDT the account does not belong to.
func judge(r frontReq, status int, body []byte, own, known map[string]bool) outcome {
	var o outcome
	for _, id := range patientIDs.FindAll(body, -1) {
		if s := string(id); known[s] && !own[s] {
			o.leaked = true
		}
	}
	switch {
	case r.kind == reqCross:
		o.failed = status != http.StatusForbidden
		if status/100 == 2 {
			o.leaked = true
		}
	default:
		o.failed = status != http.StatusOK
	}
	return o
}

func runFrontpage(e *env) (*report, error) {
	measure := e.measure()
	gc := genConfig{rate: frontRate * e.scale, measure: measure, maxInflight: 1, marks: windows(measure)}
	n := gc.opCount()
	f, setups, err := timedSetups(e, func() (*frontpage, error) {
		return newFrontpage(e.scaled(frontPatients, 40), n)
	}, (*frontpage).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	reqs := f.mix(e.seed, n)

	half := len(gc.marks) / 2
	var blocked []uint64
	gc.onMark = func(k int) {
		blocked = append(blocked, f.d.Frontend.Stats().Blocked)
		if e.trace && k == half {
			f.tracing.Store(true)
		}
	}
	var failed, leaks, status5xx int64
	statuses := map[int]int{}
	st := runOpenLoop(f.log, gc, func(i int) error {
		r := reqs[i]
		req, err := http.NewRequest(http.MethodGet, "http://"+f.addr+r.path, nil)
		if err != nil {
			return err
		}
		a := f.accounts[r.user]
		req.AddCookie(&http.Cookie{Name: webfront.SessionCookie, Value: a.cookie})
		resp, err := f.client.Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		f.log.complete(i)
		statuses[resp.StatusCode]++
		o := judge(r, resp.StatusCode, body, a.own, f.foreign)
		if o.failed {
			failed++
			if resp.StatusCode/100 == 5 {
				status5xx++
			}
		}
		if o.leaked {
			leaks++
		}
		return nil
	})
	f.tracing.Store(false)

	rep := &report{attempted: int64(n), leaks: leaks, failed: failed + st.sendErrors}
	rep.notes = append(rep.notes, fmt.Sprintf("accounts=%d statuses=%v 5xx=%d", len(f.users), statuses, status5xx))
	rw := splitWindows(f.log, n, st, e.trace)
	lat, cpu, goodput := steady(rw.untraced)
	rep.samples = len(merge(rw.untraced).lat)
	rep.setEndToEnd(setups, lat, cpu, goodput)
	rep.notes = append(rep.notes, steadyNote(rw.untraced))
	if !e.trace {
		return rep, nil
	}

	wt := rw.traced()
	lv := baseLayers(rep, rw, st, wt)
	lv["webfront.blocked_per_op"] = wt.perOp(blocked[rw.half], blocked[len(blocked)-1])
	f.phasesMu.Lock()
	var auth, priv, hand, check []float64
	for _, p := range f.phases {
		auth = append(auth, float64(p.Auth.Nanoseconds())/1e3)
		priv = append(priv, float64(p.PrivFetch.Nanoseconds())/1e3)
		hand = append(hand, float64(p.Handler.Nanoseconds())/1e3)
		check = append(check, float64(p.LabelCheck.Nanoseconds())/1e3)
	}
	f.phasesMu.Unlock()
	lv["webfront.auth_us"] = median(auth)
	lv["webfront.privfetch_us"] = median(priv)
	lv["webfront.handler_us"] = median(hand)
	lv["webfront.labelcheck_us"] = median(check)

	// Replay the records route's steps on every account's records.
	var query, wrap, toJSON []float64
	for _, u := range f.users {
		t0 := time.Now()
		docs, err := f.d.DMZDB.Query(mdt.ViewRecordsByMDT, u)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		wrapped, err := f.d.Frontend.WrapDocs(docs)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		if _, err := taint.ToJSONList(wrapped); err != nil {
			return nil, err
		}
		t3 := time.Now()
		query = append(query, float64(t1.Sub(t0).Nanoseconds())/1e3)
		wrap = append(wrap, float64(t2.Sub(t1).Nanoseconds())/1e3)
		toJSON = append(toJSON, float64(t3.Sub(t2).Nanoseconds())/1e3)
	}
	lv["docstore.query_us"] = median(query)
	lv["webfront.wrap_docs_us"] = median(wrap)
	lv["taint.to_json_us"] = median(toJSON)
	traceLayers(merge(rw.untraced), wt, lv["webfront.auth_us"]+lv["webfront.privfetch_us"]+lv["webfront.handler_us"]+lv["webfront.labelcheck_us"], lv)
	rep.layers = lv.metrics()
	return rep, nil
}
