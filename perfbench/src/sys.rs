//! The few socket and thread calls `std` does not offer, bound by hand to
//! the C library `std` already links (Linux, glibc layout).
//! Every `unsafe` block below passes the kernel a descriptor borrowed from
//! a live `UdpSocket` and pointers into memory owned by the calling frame,
//! with that memory's true length.

use std::ffi::c_void;
use std::io;
use std::net::{Ipv4Addr, UdpSocket};
use std::os::fd::AsRawFd;

const SOL_SOCKET: i32 = 1;
const SO_RCVBUF: i32 = 8;
const SO_RCVBUFFORCE: i32 = 33;
const IPPROTO_IP: i32 = 0;
const IP_PKTINFO: i32 = 8;
const MSG_DONTWAIT: i32 = 0x40;
const MSG_TRUNC: i32 = 0x20;
const PR_SET_TIMERSLACK: i32 = 29;

#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: i32,
}

/// `struct cmsghdr` header size on LP64 (`CMSG_DATA` offset).
const CMSG_HEADER: usize = 16;

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const c_void, len: u32) -> i32;
    fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

fn set_int_option(socket: &UdpSocket, level: i32, name: i32, value: i32) -> io::Result<()> {
    // SAFETY: the descriptor belongs to `socket`, which outlives the call;
    // the kernel reads exactly `size_of::<i32>()` bytes from `value`, a
    // local that outlives the call.
    let rc = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            level,
            name,
            (&value as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Sizes the socket's receive buffer, past `rmem_max` when the process may.
pub fn set_recv_buffer(socket: &UdpSocket, bytes: i32) -> io::Result<()> {
    set_int_option(socket, SOL_SOCKET, SO_RCVBUFFORCE, bytes)
        .or_else(|_| set_int_option(socket, SOL_SOCKET, SO_RCVBUF, bytes))
}

/// Asks the kernel to report each datagram's destination address.
pub fn enable_pktinfo(socket: &UdpSocket) -> io::Result<()> {
    set_int_option(socket, IPPROTO_IP, IP_PKTINFO, 1)
}

/// Shrinks the calling thread's timer slack to 1 ns, so short sleeps wake
/// on time instead of up to 50 µs late.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes plain integers and touches no memory.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Restores the calling thread's default timer slack.
pub fn reset_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes plain integers and touches no memory.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 0, 0, 0, 0);
    }
}

/// One received datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Datagram {
    /// Bytes written into the buffer.
    pub len: usize,
    /// The address the datagram was sent to (needs [`enable_pktinfo`]).
    pub dest: Option<Ipv4Addr>,
    /// The datagram was larger than the buffer.
    pub truncated: bool,
}

/// Receives one datagram into `buf`, also returning its destination
/// address.  With `wait == false` the call never blocks; otherwise it
/// blocks up to the socket's read timeout.  Both give `WouldBlock` when no
/// datagram came.
pub fn recv_with_dest(socket: &UdpSocket, buf: &mut [u8], wait: bool) -> io::Result<Datagram> {
    let mut control = [0u64; 8];
    let mut iov = IoVec {
        base: buf.as_mut_ptr().cast(),
        len: buf.len(),
    };
    let mut msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: control.as_mut_ptr().cast(),
        controllen: std::mem::size_of_val(&control),
        flags: 0,
    };
    let flags = if wait { 0 } else { MSG_DONTWAIT };
    // SAFETY: the descriptor belongs to `socket`, which outlives the call.
    // `msg` points at `iov` (one entry covering all of `buf`) and at
    // `control` with its true size; all four are owned by this frame and
    // outlive the call, and the kernel writes no more than those lengths.
    let received = unsafe { recvmsg(socket.as_raw_fd(), &mut msg, flags) };
    if received < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(Datagram {
        len: received as usize,
        dest: pktinfo_dest(&control, msg.controllen),
        truncated: msg.flags & MSG_TRUNC != 0,
    })
}

/// Walks the control messages for an `IP_PKTINFO` record and returns its
/// header destination address (`ipi_addr`).
fn pktinfo_dest(control: &[u64; 8], controllen: usize) -> Option<Ipv4Addr> {
    let bytes: Vec<u8> = control.iter().flat_map(|word| word.to_ne_bytes()).collect();
    let end = controllen.min(bytes.len());
    let mut offset = 0;
    while offset + CMSG_HEADER <= end {
        let len = usize::from_ne_bytes(bytes[offset..offset + 8].try_into().ok()?);
        let level = i32::from_ne_bytes(bytes[offset + 8..offset + 12].try_into().ok()?);
        let kind = i32::from_ne_bytes(bytes[offset + 12..offset + 16].try_into().ok()?);
        if len < CMSG_HEADER || offset + len > end {
            return None;
        }
        // struct in_pktinfo { int ifindex; in_addr spec_dst; in_addr addr; }
        if level == IPPROTO_IP && kind == IP_PKTINFO && len >= CMSG_HEADER + 12 {
            let addr = &bytes[offset + CMSG_HEADER + 8..offset + CMSG_HEADER + 12];
            return Some(Ipv4Addr::new(addr[0], addr[1], addr[2], addr[3]));
        }
        offset += (len + 7) & !7;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pktinfo_tells_loopback_destinations_apart() {
        let rx = UdpSocket::bind("0.0.0.0:0").unwrap();
        enable_pktinfo(&rx).unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let port = rx.local_addr().unwrap().port();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        for last in [1u8, 3, 2] {
            tx.send_to(&[last; 5], (Ipv4Addr::new(127, 0, 0, last), port))
                .unwrap();
        }
        let mut buf = [0u8; 64];
        for last in [1u8, 3, 2] {
            let datagram = recv_with_dest(&rx, &mut buf, true).unwrap();
            assert_eq!(datagram.len, 5);
            assert_eq!(buf[0], last);
            assert_eq!(datagram.dest, Some(Ipv4Addr::new(127, 0, 0, last)));
            assert!(!datagram.truncated);
        }
        let err = recv_with_dest(&rx, &mut buf, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }
}
