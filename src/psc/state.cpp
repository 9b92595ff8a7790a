#include "psc/state.h"

namespace btcfast::psc {

Value WorldState::balance(const Address& a) const {
  auto it = accounts_.find(a);
  return it == accounts_.end() ? 0 : it->second.balance;
}

std::uint64_t WorldState::nonce(const Address& a) const {
  auto it = accounts_.find(a);
  return it == accounts_.end() ? 0 : it->second.nonce;
}

bool WorldState::sub_balance(const Address& a, Value v) {
  auto it = accounts_.find(a);
  if (it == accounts_.end() || it->second.balance < v) return false;
  note_account(a);
  it->second.balance -= v;
  return true;
}

void WorldState::note_account(const Address& a) {
  if (journal_marks_.empty()) return;
  Undo u;
  u.kind = Undo::Kind::kAccount;
  u.addr = a;
  const auto it = accounts_.find(a);
  u.existed = it != accounts_.end();
  if (u.existed) u.account = it->second;
  journal_.push_back(std::move(u));
}

void WorldState::note_slot(const Address& contract, const Slot& key) {
  if (journal_marks_.empty()) return;
  Undo u;
  u.kind = Undo::Kind::kSlot;
  u.addr = contract;
  u.key = key;
  u.existed = false;
  const auto cit = storage_.find(contract);
  u.map_existed = cit != storage_.end();
  if (u.map_existed) {
    const auto sit = cit->second.find(key);
    if (sit != cit->second.end()) {
      u.existed = true;
      u.value = sit->second;
    }
  }
  journal_.push_back(std::move(u));
}

void WorldState::journal_begin() { journal_marks_.push_back(journal_.size()); }

void WorldState::journal_commit() noexcept {
  journal_marks_.pop_back();
  // An inner frame's records stay: the enclosing frame may still revert.
  if (journal_marks_.empty()) journal_.clear();
}

void WorldState::journal_revert() {
  const std::size_t mark = journal_marks_.back();
  journal_marks_.pop_back();
  // Reverse order: when the frame touched the same entry repeatedly, the
  // oldest record is applied last and wins, restoring the pre-image from
  // journal_begin().
  for (std::size_t i = journal_.size(); i-- > mark;) {
    const Undo& u = journal_[i];
    if (u.kind == Undo::Kind::kAccount) {
      if (u.existed) {
        accounts_[u.addr] = u.account;
      } else {
        accounts_.erase(u.addr);
      }
    } else if (u.existed) {
      storage_[u.addr][u.key] = u.value;
    } else if (const auto cit = storage_.find(u.addr); cit != storage_.end()) {
      cit->second.erase(u.key);
      // Storage maps are never erased going forward, so the record that
      // created this one is the contract's oldest in the frame: once it
      // is undone, the map is back to not existing.
      if (!u.map_existed) storage_.erase(cit);
    }
  }
  journal_.resize(mark);
}

Value WorldState::total_balance() const noexcept {
  Value total = 0;
  for (const auto& [addr, account] : accounts_) total += account.balance;
  return total;
}

Slot WorldState::storage_load(const Address& contract, const Slot& key) const {
  auto cit = storage_.find(contract);
  if (cit == storage_.end()) return Slot{};
  auto sit = cit->second.find(key);
  return sit == cit->second.end() ? Slot{} : sit->second;
}

bool WorldState::storage_store(const Address& contract, const Slot& key, const Slot& value) {
  note_slot(contract, key);
  Storage& store = storage_[contract];
  auto it = store.find(key);
  const bool was_zero = (it == store.end()) || it->second.is_zero();
  if (value.is_zero()) {
    if (it != store.end()) store.erase(it);
  } else {
    store[key] = value;
  }
  return was_zero && !value.is_zero();
}

}  // namespace btcfast::psc
