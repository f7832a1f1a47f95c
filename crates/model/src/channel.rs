//! Channel state: one FIFO resource per link or bus.
//!
//! ORACLE has "one process for each communication channel", i.e. a channel
//! transfers one message at a time and later messages queue behind it —
//! this is where communication contention comes from.

use std::collections::VecDeque;

use oracle_des::{BusyTracker, SimTime};

use crate::message::Flight;

/// The state of one communication channel (link or bus).
#[derive(Debug, Clone)]
pub struct Channel {
    /// The message currently occupying the channel, if any.
    pub in_flight: Option<Flight>,
    /// Messages waiting for the channel, FIFO.
    pub backlog: VecDeque<Flight>,
    /// Busy-time accounting for channel-utilization statistics.
    pub busy: BusyTracker,
    /// Total messages transferred.
    pub transfers: u64,
    /// High-water mark of the backlog length — the stagnation indicator.
    pub max_backlog: usize,
    /// True while a fault-plan link window holds the channel down: new
    /// offers queue in the backlog, and nothing is promoted until the
    /// channel comes back up.
    pub down: bool,
    /// Sequence of the next event this channel schedules (the low half of
    /// its events' ordering keys).
    pub key_seq: u32,
    /// True while the in-flight transfer is a silent load word
    /// (`crate::loadinfo`): its completion has a reserved sequence but no
    /// queued event.
    pub silent: bool,
    /// The backlog head's completion is already queued, under the last
    /// sequence this channel handed out: promoting it queues nothing.
    pub successor_queued: bool,
}

impl Channel {
    /// A fresh idle channel.
    pub fn new() -> Self {
        Channel {
            in_flight: None,
            backlog: VecDeque::new(),
            busy: BusyTracker::new(),
            transfers: 0,
            max_backlog: 0,
            down: false,
            key_seq: 0,
            silent: false,
            successor_queued: false,
        }
    }

    /// True if a message is currently being transferred.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Offer a flight: if the channel is free it becomes the in-flight
    /// message and the caller must schedule its completion (returns `true`);
    /// otherwise it joins the backlog (returns `false`).
    pub fn offer(&mut self, flight: Flight, now: SimTime) -> bool {
        if self.in_flight.is_none() && !self.down {
            self.in_flight = Some(flight);
            self.busy.set_busy(now);
            true
        } else {
            self.backlog.push_back(flight);
            self.max_backlog = self.max_backlog.max(self.backlog.len());
            false
        }
    }

    /// Complete the in-flight transfer, returning it, and promote the next
    /// backlog entry (if any) to in-flight. When a promotion happens the
    /// caller must schedule its completion; the channel stays busy.
    ///
    /// # Panics
    ///
    /// Panics if no transfer was in flight.
    pub fn complete(&mut self, now: SimTime) -> (Flight, Option<&Flight>) {
        let done = self
            .in_flight
            .take()
            .expect("channel completion with nothing in flight");
        self.transfers += 1;
        if self.down {
            // A transfer already on the wire when the link dropped finishes,
            // but nothing new starts until the link comes back up.
            self.busy.set_idle(now);
            return (done, None);
        }
        match self.backlog.pop_front() {
            Some(next) => {
                self.in_flight = Some(next);
                (done, self.in_flight.as_ref())
            }
            None => {
                self.busy.set_idle(now);
                (done, None)
            }
        }
    }

    /// Put the load word `word` on this idle, up channel without queueing
    /// its completion, and return the sequence reserved for the
    /// completion's key.
    pub fn occupy_silently(&mut self, word: Flight, now: SimTime) -> u32 {
        debug_assert!(self.in_flight.is_none() && !self.down && self.backlog.is_empty());
        self.in_flight = Some(word);
        self.busy.set_busy(now);
        self.silent = true;
        self.key_seq += 1;
        self.key_seq - 1
    }

    /// When the silent word in flight started, and the sequence it
    /// reserved: the one before its successor's, if that is queued.
    pub fn silent_word(&self) -> (SimTime, u32) {
        debug_assert!(self.silent);
        let (started, _) = self.busy.raw_parts();
        (
            started.expect("a silent word keeps its channel busy"),
            self.key_seq - 1 - self.successor_queued as u32,
        )
    }

    /// True while a silent word that reserved sequence `seq` is in flight.
    #[inline]
    pub fn holds_silent(&self, seq: u32) -> bool {
        self.silent && self.key_seq.wrapping_sub(1 + self.successor_queued as u32) == seq
    }

    /// The silent word completes at `now`: [`Channel::complete`], with
    /// the promoted successor's completion already queued.
    pub fn retire_silent(&mut self, now: SimTime) -> Flight {
        debug_assert!(self.silent && !self.down);
        self.silent = false;
        self.successor_queued = false;
        self.complete(now).0
    }

    /// Promote the next backlog entry to in-flight (used when a link comes
    /// back up). Returns the promoted flight, whose completion the caller
    /// must schedule; `None` if the channel is busy or the backlog is empty.
    pub fn promote(&mut self, now: SimTime) -> Option<&Flight> {
        if self.down || self.in_flight.is_some() {
            return None;
        }
        let next = self.backlog.pop_front()?;
        self.in_flight = Some(next);
        self.busy.set_busy(now);
        self.in_flight.as_ref()
    }
}

impl Default for Channel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{FlightDest, Packet};
    use oracle_topo::PeId;

    fn flight(load: u32) -> Flight {
        Flight {
            from: PeId(0),
            dest: FlightDest::Broadcast,
            piggyback_load: load,
            packet: Packet::LoadUpdate,
        }
    }

    #[test]
    fn free_channel_accepts_immediately() {
        let mut ch = Channel::new();
        assert!(ch.offer(flight(1), SimTime(0)));
        assert!(ch.is_busy());
        assert!(!ch.offer(flight(2), SimTime(0)), "second offer must queue");
        assert_eq!(ch.backlog.len(), 1);
    }

    #[test]
    fn completion_promotes_backlog_fifo() {
        let mut ch = Channel::new();
        ch.offer(flight(1), SimTime(0));
        ch.offer(flight(2), SimTime(0));
        ch.offer(flight(3), SimTime(0));
        let (done, next) = ch.complete(SimTime(5));
        assert_eq!(done.piggyback_load, 1);
        assert_eq!(next.unwrap().piggyback_load, 2);
        assert!(ch.is_busy());
        let (done, next) = ch.complete(SimTime(10));
        assert_eq!(done.piggyback_load, 2);
        assert!(next.is_some());
        let (_, next) = ch.complete(SimTime(15));
        assert!(next.is_none());
        assert!(!ch.is_busy());
        assert_eq!(ch.transfers, 3);
    }

    #[test]
    fn busy_time_accumulates_only_while_transferring() {
        let mut ch = Channel::new();
        ch.offer(flight(1), SimTime(10));
        ch.complete(SimTime(14));
        assert_eq!(ch.busy.busy_time(SimTime(20)), 4);
        assert!(!ch.busy.is_busy());
    }

    #[test]
    #[should_panic(expected = "nothing in flight")]
    fn completing_idle_channel_panics() {
        Channel::new().complete(SimTime(0));
    }

    #[test]
    fn down_channel_backlogs_offers_until_promoted() {
        let mut ch = Channel::new();
        ch.down = true;
        assert!(!ch.offer(flight(1), SimTime(0)), "down channel must queue");
        assert!(!ch.is_busy());
        assert!(ch.promote(SimTime(1)).is_none(), "no promote while down");
        ch.down = false;
        let next = ch.promote(SimTime(2)).unwrap();
        assert_eq!(next.piggyback_load, 1);
        assert!(ch.is_busy());
    }

    #[test]
    fn a_retired_silent_word_counts_as_a_completed_transfer() {
        let (mut silent, mut sent) = (Channel::new(), Channel::new());
        silent.key_seq = 4;
        sent.key_seq = 4;
        assert_eq!(silent.occupy_silently(flight(2), SimTime(10)), 4);
        assert!(silent.is_busy() && silent.silent);
        assert!(
            !silent.offer(flight(3), SimTime(10)),
            "a silent word occupies the channel"
        );
        silent.backlog.clear();
        sent.offer(flight(2), SimTime(10));
        sent.key_seq += 1;
        assert_eq!(silent.retire_silent(SimTime(11)).piggyback_load, 2);
        sent.complete(SimTime(11));
        for ch in [&silent, &sent] {
            assert!(!ch.is_busy() && !ch.silent);
            assert_eq!(ch.transfers, 1);
            assert_eq!(ch.key_seq, 5);
            assert_eq!(ch.busy.busy_time(SimTime(20)), 1);
        }
    }

    #[test]
    fn a_woken_silent_word_stays_in_flight_under_its_reserved_sequence() {
        let mut ch = Channel::new();
        ch.key_seq = 7;
        ch.occupy_silently(flight(1), SimTime(30));
        assert_eq!(ch.silent_word(), (SimTime(30), 7));
        ch.silent = false;
        assert!(ch.is_busy());
        let (done, next) = ch.complete(SimTime(31));
        assert_eq!(done.piggyback_load, 1);
        assert!(next.is_none());
    }

    #[test]
    fn in_flight_completes_but_does_not_promote_while_down() {
        let mut ch = Channel::new();
        ch.offer(flight(1), SimTime(0));
        ch.offer(flight(2), SimTime(0));
        ch.down = true;
        let (done, next) = ch.complete(SimTime(5));
        assert_eq!(done.piggyback_load, 1);
        assert!(next.is_none(), "backlog must wait for LinkUp");
        assert_eq!(ch.backlog.len(), 1);
        assert!(!ch.busy.is_busy());
    }
}
