# A Latin-1 byte no UTF-8 reader accepts: café
x = 1
