package labelstore

// The 2-hop query kernel, shared by PLL (and its TFL/DL/HL orders) and
// TOL: Qr(s, t) holds iff Lout(s) ∩ Lin(t) ≠ ∅, rt ∈ Lout(s), or
// rs ∈ Lin(t), where rs/rt are the endpoints' own ranks. Every row it
// meets — a frozen Store row, a builder row, a thawed dynamic row — is a
// plain sorted slice, so the query is one forward merge: contiguous,
// branch-predictable, 0 allocs.

// CoverRows answers the 2-hop cover query over sorted slice rows.
func CoverRows(ls, lt []uint32, rs, rt uint32) bool {
	i, j := 0, 0
	for i < len(ls) && j < len(lt) {
		switch {
		case ls[i] == lt[j]:
			return true
		case ls[i] < lt[j]:
			if ls[i] == rt {
				return true // t ∈ Lout(s)
			}
			i++
		default:
			if lt[j] == rs {
				return true // s ∈ Lin(t)
			}
			j++
		}
	}
	for ; i < len(ls); i++ {
		if ls[i] == rt {
			return true
		}
	}
	for ; j < len(lt); j++ {
		if lt[j] == rs {
			return true
		}
	}
	return false
}
